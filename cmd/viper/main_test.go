package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"viper/internal/anomaly"
	"viper/internal/core"
	"viper/internal/histio"
	"viper/internal/history"
)

func writeSample(t *testing.T, mutate func(h *history.History)) string {
	t.Helper()
	b := history.NewBuilder()
	s := b.Session()
	w := s.Txn().Write("x").Commit()
	s.Txn().ReadObserved("x", w.WriteIDOf("x")).Commit()
	h := b.RawHistory()
	if mutate != nil {
		mutate(h)
	}
	path := filepath.Join(t.TempDir(), "h.jsonl")
	if err := histio.WriteFile(path, h); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAccept(t *testing.T) {
	path := writeSample(t, nil)
	h, err := loadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []core.Level{core.AdyaSI, core.StrongSessionSI} {
		var out, errb bytes.Buffer
		code := run([]string{"-v", "-level", level.String(), path}, &out, &errb)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", level, code, errb.String())
		}
		// -v reports the checked polygraph's edge kinds without building a
		// second one; the counts must still be Build's.
		k := core.Build(h, core.Options{Level: level}).Stats().EdgesByKind
		kinds := fmt.Sprintf("known edges: intra=%d wr=%d ww=%d rw=%d session=%d real-time=%d\n",
			k[core.EdgeIntra], k[core.EdgeWR], k[core.EdgeWW], k[core.EdgeRW],
			k[core.EdgeSession], k[core.EdgeRealTime])
		for _, want := range []string{"verdict: accept", "polygraph:", kinds, "solver:", "ts-order "} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("%v: output missing %q:\n%s", level, want, out.String())
			}
		}
	}
}

func TestRunRejectWithCycleAndDot(t *testing.T) {
	path := writeSample(t, func(h *history.History) {
		anomaly.Inject(h, anomaly.ReadSkew)
	})
	dot := filepath.Join(t.TempDir(), "g.dot")
	var out, errb bytes.Buffer
	code := run([]string{"-dot", dot, path}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, out: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "counterexample cycle") {
		t.Fatalf("no counterexample:\n%s", out.String())
	}
	if _, err := histio.ReadFile(dot); err == nil {
		t.Fatal("dot file parsed as history?!")
	}

	// A timestamped history whose one write-order constraint the clocks
	// decide: the drawing must still show it as a constraint.
	b := history.NewBuilder()
	b.Session().Txn().Write("x").Commit()
	w2 := b.Session().Txn().Write("x").Commit()
	b.Session().Txn().ReadObserved("x", w2.WriteIDOf("x")).Commit()
	h := b.MustHistory()
	if n := core.Build(h, core.Options{Level: core.AdyaSI}).Stats().Constraints; n != 0 {
		t.Fatalf("setup: %d constraints left undecided by the clocks, want 0", n)
	}
	path = filepath.Join(t.TempDir(), "ts.jsonl")
	if err := histio.WriteFile(path, h); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-dot", dot, path}, &out, &errb); code != 0 {
		t.Fatalf("timestamped history: exit %d, out: %s", code, out.String())
	}
	raw, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`label="c0"`, `label="c0'"`, "style=dashed"} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("DOT of a timestamped history misses constraint %q:\n%s", want, raw)
		}
	}
}

func TestRunValidationReject(t *testing.T) {
	path := writeSample(t, func(h *history.History) {
		anomaly.Inject(h, anomaly.AbortedRead)
	})
	var out, errb bytes.Buffer
	code := run([]string{path}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d (out %q, err %q)", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "reject (validation)") {
		t.Fatalf("output: %s", out.String())
	}
}

func TestRunLevels(t *testing.T) {
	path := writeSample(t, nil)
	for _, level := range []string{"adya-si", "gsi", "strong-session-si", "strong-si", "serializability", "ser", "si", "sssi"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-level", level, path}, &out, &errb); code != 0 {
			t.Fatalf("level %s: exit %d", level, code)
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-level", "bogus", path}, &out, &errb); code != exitUsage {
		t.Fatal("bogus level accepted")
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != exitUsage {
		t.Fatalf("no-args exit %d", code)
	}
	if !strings.Contains(errb.String(), "exit codes: 0 accept, 1 reject, 2 usage/IO error, 3 timeout") {
		t.Fatalf("usage does not document exit codes:\n%s", errb.String())
	}
	if code := run([]string{"/nonexistent/file"}, &out, &errb); code != exitUsage {
		t.Fatalf("missing-file exit %d", code)
	}
}

func TestRunFollowCompleteLogAccepts(t *testing.T) {
	path := writeSample(t, nil)
	var out, errb bytes.Buffer
	code := run([]string{"-follow", "-every", "1", "-idle-exit", "100ms", path}, &out, &errb)
	if code != exitAccept {
		t.Fatalf("exit %d, out %q, err %q", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "txns: accept") {
		t.Fatalf("no streamed accept verdicts:\n%s", out.String())
	}
}

func TestRunFollowDetectsReject(t *testing.T) {
	path := writeSample(t, func(h *history.History) {
		anomaly.Inject(h, anomaly.ReadSkew)
	})
	var out, errb bytes.Buffer
	code := run([]string{"-follow", "-idle-exit", "100ms", path}, &out, &errb)
	if code != exitReject {
		t.Fatalf("exit %d, out %q, err %q", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "txns: reject") {
		t.Fatalf("no streamed reject verdict:\n%s", out.String())
	}
}

func TestRunFollowTailsGrowingLog(t *testing.T) {
	// Start from a log whose header declares more transactions than are
	// initially present, append the rest while -follow is running, and
	// check the tail loop picks them up and audits more than once.
	b := history.NewBuilder()
	s := b.Session()
	w := s.Txn().Write("x").Commit()
	s.Txn().ReadObserved("x", w.WriteIDOf("x")).Commit()
	h := b.RawHistory()

	var full bytes.Buffer
	if err := histio.Encode(&full, h); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(full.String(), "\n")
	if len(lines) < 3 {
		t.Fatalf("unexpected encoding: %q", full.String())
	}
	path := filepath.Join(t.TempDir(), "h.jsonl")
	if err := os.WriteFile(path, []byte(lines[0]+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(150 * time.Millisecond)
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return
		}
		defer f.Close()
		f.WriteString(strings.Join(lines[2:], ""))
	}()

	var out, errb bytes.Buffer
	code := run([]string{"-follow", "-every", "1", "-interval", "50ms", "-idle-exit", "400ms", path}, &out, &errb)
	if code != exitAccept {
		t.Fatalf("exit %d, out %q, err %q", code, out.String(), errb.String())
	}
	if strings.Count(out.String(), "txns: accept") < 2 {
		t.Fatalf("expected multiple streamed audits:\n%s", out.String())
	}
}

func TestRunFollowValidationPendingThenAccept(t *testing.T) {
	// A prefix whose read observes a not-yet-appended write must be
	// reported as pending (validation), not rejected, and the session must
	// accept once the writer arrives.
	b := history.NewBuilder()
	s1, s2 := b.Session(), b.Session()
	w := s1.Txn().Write("x").Commit()
	s2.Txn().ReadObserved("x", w.WriteIDOf("x")).Commit()
	h := b.RawHistory()
	// Swap so the reader precedes the writer in the log.
	h.Txns[1], h.Txns[2] = h.Txns[2], h.Txns[1]
	h.Txns[1].ID, h.Txns[2].ID = 1, 2

	var full bytes.Buffer
	if err := histio.Encode(&full, h); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(full.String(), "\n")
	path := filepath.Join(t.TempDir(), "h.jsonl")
	if err := os.WriteFile(path, []byte(lines[0]+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(150 * time.Millisecond)
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return
		}
		defer f.Close()
		f.WriteString(strings.Join(lines[2:], ""))
	}()

	var out, errb bytes.Buffer
	code := run([]string{"-follow", "-every", "1", "-interval", "50ms", "-idle-exit", "400ms", path}, &out, &errb)
	if code != exitAccept {
		t.Fatalf("exit %d, out %q, err %q", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "pending (validation") {
		t.Fatalf("expected a pending validation audit:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "txns: accept") {
		t.Fatalf("expected a final accept:\n%s", out.String())
	}
}
