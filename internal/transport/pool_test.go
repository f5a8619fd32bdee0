package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockstore"
)

// The client's pool is its connections times each one's negotiated
// stream limit: a request beyond it waits for a free stream slot.

func TestClientPoolCapBlocksAndRecovers(t *testing.T) {
	store := blockstore.NewSlowStore(blockstore.NewMemStore(),
		blockstore.SlowProfile{BaseLatency: 100 * time.Millisecond}, 1)
	srv := NewServer(store, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	client, err := Dial(ln.Addr().String(), ClientOptions{MuxConns: 1, MuxMaxStreams: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	// Six concurrent puts through a 2-stream pool: all must finish.
	var wg sync.WaitGroup
	errCh := make(chan error, 6)
	start := time.Now()
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := client.Put(ctx, "s", i, []byte{byte(i)}); err != nil {
				errCh <- err
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// With a cap of 2 and 100ms per op, 6 ops take >= ~300ms.
	if time.Since(start) < 250*time.Millisecond {
		t.Fatalf("pool cap not enforced: %v", time.Since(start))
	}
}

func TestClientPoolWaiterHonorsContext(t *testing.T) {
	store := blockstore.NewSlowStore(blockstore.NewMemStore(),
		blockstore.SlowProfile{BaseLatency: 5 * time.Second}, 1)
	srv := NewServer(store, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	client, err := Dial(ln.Addr().String(), ClientOptions{MuxConns: 1, MuxMaxStreams: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Occupy the single stream slot.
	go client.Put(context.Background(), "s", 0, []byte("slow"))
	time.Sleep(50 * time.Millisecond)
	// A second request must give up when its context expires while
	// waiting for a stream slot.
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := client.Put(ctx, "s", 1, []byte("x")); err == nil {
		t.Fatal("pool waiter ignored context")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("pool waiter stuck for %v", time.Since(start))
	}
}

func TestCloseUnblocksPoolWaiters(t *testing.T) {
	store := blockstore.NewSlowStore(blockstore.NewMemStore(),
		blockstore.SlowProfile{BaseLatency: 3 * time.Second}, 1)
	srv := NewServer(store, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	client, err := Dial(ln.Addr().String(), ClientOptions{MuxConns: 1, MuxMaxStreams: 1})
	if err != nil {
		t.Fatal(err)
	}
	go client.Put(context.Background(), "s", 0, []byte("slow"))
	time.Sleep(50 * time.Millisecond)
	errCh := make(chan error, 1)
	go func() {
		errCh <- client.Put(context.Background(), "s", 1, []byte("x"))
	}()
	time.Sleep(50 * time.Millisecond)
	client.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("put through closed client succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock pool waiter")
	}
}

func TestServeOnClosedServer(t *testing.T) {
	srv := NewServer(blockstore.NewMemStore(), ServerOptions{})
	srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve on closed server succeeded")
	}
}

func TestServerAddr(t *testing.T) {
	srv := NewServer(blockstore.NewMemStore(), ServerOptions{})
	if srv.Addr() != nil {
		t.Fatal("Addr before Serve should be nil")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	time.Sleep(20 * time.Millisecond)
	if srv.Addr() == nil {
		t.Fatal("Addr after Serve is nil")
	}
}

// TestDialerCancellationDoesNotFailWaiters: callers that find no live
// connection wait for the dial in progress. When the caller that
// started it gives up mid-preface, the others must not inherit its
// cancellation: one of them dials again and gets served.
func TestDialerCancellationDoesNotFailWaiters(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(blockstore.NewMemStore(), ServerOptions{})
	t.Cleanup(func() { srv.Close() })
	// The first connection's preface is never answered.
	stalled := make(chan net.Conn, 1)
	var accepted atomic.Int64
	go srv.Serve(listenerFunc{ln, func(c net.Conn) bool {
		if accepted.Add(1) == 1 {
			stalled <- c
			return false
		}
		return true
	}})
	client := &Client{addr: ln.Addr().String(), dialTimeout: 5 * time.Second, muxMaxConns: 1}
	defer client.Close()

	dialerCtx, cancel := context.WithCancel(context.Background())
	dialerErr, waiterErr := make(chan error, 1), make(chan error, 1)
	go func() { dialerErr <- client.Ping(dialerCtx) }()
	defer (<-stalled).Close() // the dialer now waits for the preface answer
	go func() { waiterErr <- client.Ping(context.Background()) }()
	time.Sleep(20 * time.Millisecond) // let the waiter queue behind the dial
	cancel()
	if err := <-dialerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled dialer = %v, want context.Canceled", err)
	}
	select {
	case err := <-waiterErr:
		if err != nil {
			t.Fatalf("waiter inherited the dialer's failure: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never served")
	}
}

// listenerFunc hands the server only the accepted connections keep
// returns true for.
type listenerFunc struct {
	net.Listener
	keep func(net.Conn) bool
}

func (l listenerFunc) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil || l.keep(c) {
			return c, err
		}
	}
}
