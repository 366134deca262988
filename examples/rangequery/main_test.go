package main

import (
	"testing"

	"viper/internal/exampletest"
)

func TestRangeQuery(t *testing.T) {
	exampletest.Run(t, main,
		"figure-6 (empty range result): accept",
		"pinned empty range result:     reject",
		"range returning the tombstone: accept")
}
