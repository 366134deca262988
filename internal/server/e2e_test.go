package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"viper"
	"viper/internal/core"
	"viper/internal/obs"
)

// offlineDoc runs the offline batch check over h and renders it as the
// same document the daemon emits, so the two can be compared byte for
// byte (after normalizing host/timing fields).
func offlineDoc(h *viper.History, opts viper.Options) *obs.ReportDoc {
	res := viper.Check(h, opts)
	return core.BuildReportDoc("viperd", "", h, res.ParseTime, res.Report, res.Violation, opts, nil)
}

func docBytes(d *obs.ReportDoc) []byte {
	d.Normalize()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// TestE2EConcurrentSessions is the subsystem's acceptance test: N
// concurrent sessions each stream a distinct history in several chunks,
// audit mid-stream and again at completion, and the final verdict and
// report must match the offline batch check of the same history —
// byte-identical documents for the completed single-audit sessions,
// verdict-identical for the sessions that also audited mid-stream.
func TestE2EConcurrentSessions(t *testing.T) {
	srv, cl := start(t, Config{Workers: 4, QueueDepth: 64})
	ctx := context.Background()
	opts := viper.Options{Level: viper.AdyaSI}

	const N = 6
	hs := make([]*viper.History, N)
	raws := make([][]byte, N)
	for i := range hs {
		hs[i] = genHistory(t, 40+10*i, int64(100+i))
		raws[i] = encode(t, hs[i])
	}

	var wg sync.WaitGroup
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("session %d: %s", i, fmt.Sprintf(format, args...))
			}
			h, raw := hs[i], raws[i]
			midStream := i%2 == 1

			info, err := cl.CreateSession(ctx, SessionConfig{Name: fmt.Sprintf("e2e%d", i), Level: "si"})
			if err != nil {
				fail("create: %v", err)
				return
			}
			// Stream in three ragged chunks.
			cuts := []int{len(raw) / 4, 2*len(raw)/3 + i, len(raw)}
			prev := 0
			for c, cut := range cuts {
				last := c == len(cuts)-1
				if _, err := cl.Append(ctx, info.ID, bytes.NewReader(raw[prev:cut]), last); err != nil {
					fail("append %d: %v", c, err)
					return
				}
				prev = cut
				if midStream && c == 1 {
					if doc, err := cl.Audit(ctx, info.ID); err != nil {
						fail("mid-stream audit: %v", err)
						return
					} else if doc.Outcome != "accept" {
						fail("mid-stream audit of an SI prefix: %q", doc.Outcome)
						return
					}
				}
			}
			doc, err := cl.Audit(ctx, info.ID)
			if err != nil {
				fail("final audit: %v", err)
				return
			}

			off := offlineDoc(h, opts)
			if doc.Outcome != off.Outcome {
				fail("verdict %q, offline %q", doc.Outcome, off.Outcome)
				return
			}
			if !midStream {
				// Single cold audit: the daemon's document must be byte-identical
				// to the offline check's.
				got, want := docBytes(doc), docBytes(off)
				if !bytes.Equal(got, want) {
					fail("report differs from offline check:\n--- daemon ---\n%s\n--- offline ---\n%s", got, want)
					return
				}
			}
			if err := cl.DeleteSession(ctx, info.ID); err != nil {
				fail("delete: %v", err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	if n := srv.Metrics().Get("viperd_audits_accept_total"); n < N {
		t.Fatalf("accept counter = %d, want >= %d", n, N)
	}
}

// TestClientDisconnectCancelsAudit holds an admitted audit at the
// pre-solve hook, kills the client mid-request, and asserts the solve is
// interrupted by the canceled request context rather than running to
// completion: the hook releases the audit only once the server has
// observed the disconnect (the request context's Done fires).
func TestClientDisconnectCancelsAudit(t *testing.T) {
	admitted := make(chan struct{})
	srv := New(Config{IdleTTL: -1, AuditTimeout: -1})
	var hookOnce sync.Once
	srv.preAudit = func(_ string, ctx context.Context) {
		hookOnce.Do(func() {
			close(admitted)
			<-ctx.Done()
		})
	}
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{}
	cl := NewClient(ts.URL)
	cl.HTTP = &http.Client{Transport: tr}
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		ts.Close()
		tr.CloseIdleConnections()
	})

	ctx := context.Background()
	info, err := cl.CreateSession(ctx, SessionConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cl.Append(ctx, info.ID, bytes.NewReader(encode(t, genHistory(t, 50, 9))), true); err != nil {
		t.Fatalf("append: %v", err)
	}

	reqCtx, cancel := context.WithCancel(ctx)
	auditDone := make(chan error, 1)
	go func() {
		_, err := cl.Audit(reqCtx, info.ID)
		auditDone <- err
	}()
	<-admitted
	cancel() // client disconnects while the audit is in flight
	<-auditDone

	// The audit must conclude as an interrupt (outcome timeout), promptly.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Get("viperd_audits_timeout_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("audit was not canceled; metrics: %v", srv.Metrics().Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.Metrics().Get("viperd_audits_accept_total"); n != 0 {
		t.Fatalf("audit ran to completion despite disconnect (accepts=%d)", n)
	}

	// The session survives: a fresh audit over the same state succeeds
	// (the hook fired its blocking path once and is inert now).
	doc, err := cl.Audit(ctx, info.ID)
	if err != nil || doc.Outcome != "accept" {
		t.Fatalf("re-audit after cancel: %+v, %v", doc, err)
	}
}

// TestShutdownLeaksNoGoroutines builds a server, drives a full session
// through it, shuts down, and asserts the goroutine count returns to its
// pre-server baseline — the CI end-to-end job runs this under -race.
func TestShutdownLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srv := New(Config{IdleTTL: 50 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{}
	cl := NewClient(ts.URL)
	cl.HTTP = &http.Client{Transport: tr}

	ctx := context.Background()
	info, err := cl.CreateSession(ctx, SessionConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cl.Append(ctx, info.ID, bytes.NewReader(encode(t, genHistory(t, 30, 11))), true); err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := cl.Audit(ctx, info.ID); err != nil {
		t.Fatalf("audit: %v", err)
	}

	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()
	tr.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return // solver pools and test runtime allow a little slack
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeGracefulShutdown exercises the real listener path (Serve +
// Shutdown) rather than httptest.
func TestServeGracefulShutdown(t *testing.T) {
	srv := New(Config{IdleTTL: -1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	cl := NewClient("http://" + l.Addr().String())
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := cl.Health(context.Background()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v", err)
	}
}
