package main

import (
	"testing"

	"viper/internal/exampletest"
)

func TestBugDetector(t *testing.T) {
	exampletest.Run(t, main,
		"none (correct SI)   accept",
		"lost update         reject",
		"visible aborts      reject   read observed aborted write (G1a)",
		"  strong-si          reject")
}
