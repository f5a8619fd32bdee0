package robust

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/transport"
)

// parkedStore holds every Put until its request is canceled.
type parkedStore struct {
	blockstore.Store
	puts atomic.Int64
}

func (s *parkedStore) Put(ctx context.Context, _ string, _ int, _ []byte) error {
	s.puts.Add(1)
	<-ctx.Done()
	return ctx.Err()
}

// sendCounter counts every put-shaped call the robust client makes.
type sendCounter struct {
	*transport.Client
	sends atomic.Int64
}

func (s *sendCounter) PutStream(ctx context.Context, seg string, puts []blockstore.BatchPut, acked func(int, error)) error {
	s.sends.Add(1)
	return s.Client.PutStream(ctx, seg, puts, acked)
}

func (s *sendCounter) Put(ctx context.Context, seg string, idx int, data []byte) error {
	s.sends.Add(1)
	return s.Client.Put(ctx, seg, idx, data)
}

func (s *sendCounter) PutBatch(ctx context.Context, seg string, puts []blockstore.BatchPut) []error {
	s.sends.Add(1)
	return s.Client.PutBatch(ctx, seg, puts)
}

// TestCanceledRunIsNotResent: the commit target is reached while a
// parked server still holds multi-entry runs in flight. Those runs
// fail with the cancellation and nothing of them is sent again (the
// write path once re-issued a run canceled before its first ack
// through a batch fallback under the canceled context).
func TestCanceledRunIsNotResent(t *testing.T) {
	const workers = 2
	// GraphSlack leaves the other servers enough fresh indices to reach
	// the target while the parked runs hold theirs. K=64, N=256 over
	// three servers: each worker's first run is a full 16-entry run.
	c, err := NewClient(metadata.NewService(), Options{BlockBytes: 4 << 10, PerServerParallel: workers, GraphSlack: 40})
	if err != nil {
		t.Fatal(err)
	}
	parked := &parkedStore{Store: blockstore.NewMemStore()}
	regs := make([]*obs.Registry, 3)
	conns := make([]*sendCounter, 3)
	for i := range regs {
		regs[i] = obs.NewRegistry()
		var store blockstore.Store = blockstore.NewMemStore()
		if i == 0 {
			store = parked
		}
		srv := transport.NewServer(store, transport.ServerOptions{Obs: regs[i]})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		tc, err := transport.Dial(ln.Addr().String(), transport.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tc.Close() })
		conns[i] = &sendCounter{Client: tc}
		if err := c.AttachStore(tc.Addr(), conns[i]); err != nil {
			t.Fatal(err)
		}
	}
	putOps := func(reg *obs.Registry) int64 {
		snap := reg.Snapshot().Counters
		return snap["transport_server_put_total"] + snap["transport_server_put_stream_total"]
	}

	ws, err := c.Write(context.Background(), "obj", randData(256<<10, 21), nil)
	if err != nil || ws.Committed < ws.N {
		t.Fatalf("Write = %+v, %v", ws, err)
	}
	sent := conns[0].sends.Load()
	if sent < 1 || sent > workers || parked.puts.Load() != sent || ws.PerServer[conns[0].Addr()] != 0 {
		t.Fatalf("parked server: %d sends (want 1..%d, its in-flight runs only), %d parked puts, %d committed",
			sent, workers, parked.puts.Load(), ws.PerServer[conns[0].Addr()])
	}
	if regs[0].Snapshot().Counters["transport_server_put_stream_total"] == 0 {
		t.Error("the parked runs did not go out as PUTSTREAM streams")
	}
	// Every put op a server counts is one the spread sent (a send racing
	// the cancel may never reach the wire, one already on it may land
	// just after Write returns), and none arrives once they have landed.
	time.Sleep(100 * time.Millisecond)
	settled := make([]int64, len(regs))
	for i, reg := range regs {
		if settled[i] = putOps(reg); settled[i] > conns[i].sends.Load() {
			t.Errorf("server %d counted %d put ops for %d sends", i, settled[i], conns[i].sends.Load())
		}
	}
	if settled[0] != sent {
		t.Errorf("parked server counted %d put ops for its %d in-flight runs", settled[0], sent)
	}
	time.Sleep(100 * time.Millisecond)
	for i, reg := range regs {
		if got := putOps(reg); got != settled[i] {
			t.Errorf("server %d counted %d more put ops after settling", i, got-settled[i])
		}
	}
}
