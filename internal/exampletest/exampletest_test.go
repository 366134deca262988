package exampletest

import (
	"fmt"
	"testing"
)

func TestRunCapturesStdout(t *testing.T) {
	Run(t, func() { fmt.Println("verdict: accept") }, "verdict: accept")
}
