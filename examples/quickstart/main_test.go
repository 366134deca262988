package main

import (
	"testing"

	"viper/internal/exampletest"
)

func TestQuickstart(t *testing.T) {
	exampletest.Run(t, main,
		"figure-2 history: accept",
		"long-fork history: reject")
}
