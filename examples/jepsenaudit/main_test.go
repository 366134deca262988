package main

import (
	"testing"

	"viper/internal/exampletest"
)

func TestJepsenAudit(t *testing.T) {
	exampletest.Run(t, main,
		"healthy list-append run:   accept",
		"long-fork register run:    reject")
}
