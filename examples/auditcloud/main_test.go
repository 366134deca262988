package main

import (
	"testing"

	"viper/internal/exampletest"
)

func TestAuditCloud(t *testing.T) {
	exampletest.Run(t, main,
		"adya-si             accept",
		"serializability     accept")
}
