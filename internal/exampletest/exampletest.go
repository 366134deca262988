// Package exampletest runs the programs under examples/ as smoke tests:
// each example's test calls its main and checks the verdicts it prints.
package exampletest

import (
	"io"
	"os"
	"strings"
	"testing"
)

// Run calls main with standard output captured and fails t unless the
// output contains every line of want. The examples exit through
// log.Fatal on any error, which fails the test binary outright.
func Run(t *testing.T, main func(), want ...string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	defer func() { os.Stdout = stdout }()
	main()
	w.Close()
	out := <-done
	for _, line := range want {
		if !strings.Contains(out, line) {
			t.Errorf("output lacks %q:\n%s", line, out)
		}
	}
}
