package transport

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// scriptedServer speaks the protocol by hand so tests can misbehave
// at exact exchange boundaries. Each connection gets the SETTINGS
// preface; after that the script is called once per complete request
// (a REQ frame carrying FIN) with the 1-based global exchange number,
// the live conn and the request's stream id. Returning false closes
// the connection without a (full) response.
type scriptedServer struct {
	ln       net.Listener
	exchange atomic.Int64
	conns    atomic.Int64
}

func newScriptedServer(t *testing.T, script func(n int64, conn net.Conn, id uint32) bool) *scriptedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedServer{ln: ln}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.conns.Add(1)
			go func(conn net.Conn) {
				defer conn.Close()
				mr := &muxReader{r: conn}
				peer, err := readSettings(mr)
				if err != nil {
					return
				}
				if writeSettings(&lockedWriter{w: conn}, peer) != nil {
					return
				}
				for {
					f, err := mr.next()
					if err != nil {
						return
					}
					if f.kind != muxKindReq || f.flags&muxFlagFIN == 0 {
						continue
					}
					if !script(s.exchange.Add(1), conn, f.id) {
						return
					}
				}
			}(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return s
}

// okResponse writes a well-formed one-frame OK response for stream id.
func okResponse(conn net.Conn, id uint32) bool {
	return writeMuxFrame(&lockedWriter{w: conn}, muxKindResp, id, []byte{muxFlagFIN, statusOK}, []byte("x")) == nil
}

// TestExchangeDropsConnOnShortRead: a response truncated mid-frame
// (short read) must kill the connection instead of leaving it in the
// pool — a half-read conn would poison the next request on it — and
// the next request must redial.
func TestExchangeDropsConnOnShortRead(t *testing.T) {
	srv := newScriptedServer(t, func(n int64, conn net.Conn, id uint32) bool {
		switch n {
		case 1: // Dial's ping
			return okResponse(conn, id)
		case 2: // truncated frame: promise 10 bytes, deliver 3, close
			conn.Write([]byte{0, 0, 0, 10})
			conn.Write([]byte{1, 2, 3})
			return false
		default:
			return okResponse(conn, id)
		}
	})
	reg := obs.NewRegistry()
	c, err := Dial(srv.ln.Addr().String(), ClientOptions{Obs: reg, MuxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err == nil {
		t.Fatal("short-read exchange should error")
	}
	// The poisoned conn must not be reused: the next request dials
	// fresh and succeeds.
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("request after short read failed: %v", err)
	}
	if got := srv.conns.Load(); got != 2 {
		t.Fatalf("server saw %d conns, want 2 (poisoned conn dropped, fresh dial)", got)
	}
}

// TestExchangeDropsConnOnEmptyResponse: a zero-length frame (no kind,
// no stream id, no status) is a protocol violation even when a
// well-formed response follows it; the conn must not be reused.
func TestExchangeDropsConnOnEmptyResponse(t *testing.T) {
	srv := newScriptedServer(t, func(n int64, conn net.Conn, id uint32) bool {
		switch n {
		case 1:
			return okResponse(conn, id)
		case 2: // empty frame: length 0, then a valid answer
			conn.Write([]byte{0, 0, 0, 0})
			return okResponse(conn, id)
		default:
			return okResponse(conn, id)
		}
	})
	reg := obs.NewRegistry()
	c, err := Dial(srv.ln.Addr().String(), ClientOptions{Obs: reg, MuxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err == nil {
		t.Fatal("empty response should error")
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("request after empty response failed: %v", err)
	}
	if got := reg.Counter("transport_client_dials_total").Value(); got != 2 {
		t.Fatalf("dials=%d, want 2: the protocol-violating conn must not be reused", got)
	}
}

// TestIdempotentRetryRecovers: the first two exchanges die mid-air;
// with MaxRetries the GET succeeds anyway and the retry counters
// record the recovery.
func TestIdempotentRetryRecovers(t *testing.T) {
	srv := newScriptedServer(t, func(n int64, conn net.Conn, id uint32) bool {
		switch n {
		case 1: // Dial's ping
			return okResponse(conn, id)
		case 2, 3: // two dead exchanges: close without responding
			return false
		default:
			return okResponse(conn, id)
		}
	})
	reg := obs.NewRegistry()
	c, err := Dial(srv.ln.Addr().String(), ClientOptions{
		MaxRetries:     4,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  4 * time.Millisecond,
		Obs:            reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Get(context.Background(), "seg", 0); err != nil {
		t.Fatalf("get with retries failed: %v", err)
	}
	if got := reg.Counter("transport_client_retries_total").Value(); got != 2 {
		t.Fatalf("retries=%d, want 2", got)
	}
	if got := reg.Counter("transport_client_retry_successes_total").Value(); got != 1 {
		t.Fatalf("retry successes=%d, want 1", got)
	}
}

// TestPutNotRetried: PUT is non-idempotent at the transport layer
// (the robust write path re-routes failures to healthier servers), so
// a dead exchange must surface immediately.
func TestPutNotRetried(t *testing.T) {
	srv := newScriptedServer(t, func(n int64, conn net.Conn, id uint32) bool {
		if n == 1 {
			return okResponse(conn, id)
		}
		return false // every later exchange dies
	})
	reg := obs.NewRegistry()
	c, err := Dial(srv.ln.Addr().String(), ClientOptions{
		MaxRetries: 8, RetryBaseDelay: time.Millisecond, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(context.Background(), "seg", 0, []byte("data")); err == nil {
		t.Fatal("put against a dead exchange should fail")
	}
	if got := reg.Counter("transport_client_retries_total").Value(); got != 0 {
		t.Fatalf("retries=%d, want 0: puts must not retry", got)
	}
}

// TestRetryGivesUpAfterBudget: a server that never recovers exhausts
// the retry budget and reports the giveup.
func TestRetryGivesUpAfterBudget(t *testing.T) {
	srv := newScriptedServer(t, func(n int64, conn net.Conn, id uint32) bool {
		if n == 1 {
			return okResponse(conn, id)
		}
		return false
	})
	reg := obs.NewRegistry()
	c, err := Dial(srv.ln.Addr().String(), ClientOptions{
		MaxRetries:     3,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  2 * time.Millisecond,
		Obs:            reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Get(context.Background(), "seg", 0); err == nil {
		t.Fatal("get should fail once the retry budget is exhausted")
	}
	if got := reg.Counter("transport_client_retries_total").Value(); got != 3 {
		t.Fatalf("retries=%d, want 3", got)
	}
	if got := reg.Counter("transport_client_retry_giveups_total").Value(); got != 1 {
		t.Fatalf("giveups=%d, want 1", got)
	}
}

// TestRetryHonorsCancellation: caller cancellation must win over the
// retry loop, during the exchange and during the backoff sleep.
func TestRetryHonorsCancellation(t *testing.T) {
	srv := newScriptedServer(t, func(n int64, conn net.Conn, id uint32) bool {
		if n == 1 {
			return okResponse(conn, id)
		}
		return false
	})
	c, err := Dial(srv.ln.Addr().String(), ClientOptions{
		MaxRetries:     1000,
		RetryBaseDelay: 50 * time.Millisecond,
		RetryMaxDelay:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.Get(ctx, "seg", 0)
	if err == nil {
		t.Fatal("canceled get should fail")
	}
	if !errors.Is(err, context.Canceled) && ctx.Err() == nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — retry loop ignored ctx", elapsed)
	}
}
