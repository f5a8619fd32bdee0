package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
	"repro/internal/metadata"
	"repro/internal/transport"
)

// layer is a traced boundary.
type layer uint8

const (
	layerOp     layer = iota // a robust.Client call
	layerMeta                // the metadata.API handed to robust.NewClient
	layerClient              // the transport.Client handed to AttachStore
	layerServer              // the blockstore.Store handed to transport.NewServer
)

func (l layer) String() string { return [...]string{"op", "meta", "client", "server"}[l] }

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	layer    layer
	kind     string
	op       int32 // parent op id; -1 when no op owns the segment
	server   int16 // block-server number for client and server spans
	seg      string
	indices  []int
	start    int64
	end      int64
	blocks   int
	bytes    int64
	canceled bool
	failed   bool
}

// tracer records spans in memory while enabled. Every metadata and
// store call carries a segment name and the generator never runs two
// ops on one key at once, so the op that owns a segment when a call
// starts is the call's parent.
type tracer struct {
	epoch   time.Time
	enabled atomic.Bool

	mu      sync.Mutex
	spans   []span
	owner   map[string]int32 // segment -> active op id
	nextOp  int32
	servers map[string]int16 // block-server address -> number
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), owner: map[string]int32{}, servers: map[string]int16{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginOp makes a new op the owner of segs and returns its id.
func (t *tracer) beginOp(segs ...string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextOp
	t.nextOp++
	for _, s := range segs {
		t.owner[s] = id
	}
	return id
}

// own adds a segment to an op that is already running.
func (t *tracer) own(id int32, seg string) {
	t.mu.Lock()
	t.owner[seg] = id
	t.mu.Unlock()
}

// endOp releases segs; spans starting later are unowned.
func (t *tracer) endOp(segs ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range segs {
		delete(t.owner, s)
	}
}

func (t *tracer) ownerOf(seg string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.owner[seg]; ok {
		return id
	}
	return -1
}

func (t *tracer) serverNum(addr string) int16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.servers[addr]
	if !ok {
		n = int16(len(t.servers))
		t.servers[addr] = n
	}
	return n
}

// call opens a span; finish closes and records it. A span opened while
// the tracer is disabled is dropped.
func (t *tracer) call(l layer, kind string, server int16, seg string) *span {
	if !t.enabled.Load() {
		return nil
	}
	op := int32(-1)
	if seg != "" {
		op = t.ownerOf(seg)
	}
	return &span{layer: l, kind: kind, op: op, server: server, seg: seg, start: t.now()}
}

func (t *tracer) finish(s *span, err error) {
	if s == nil {
		return
	}
	s.end = t.now()
	if err != nil {
		s.canceled = errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		s.failed = !s.canceled && !errors.Is(err, blockstore.ErrNotFound)
	}
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// recordOp records a finished op span.
func (t *tracer) recordOp(id int32, kind opKind, seg string, start, end int64, failed bool) {
	t.mu.Lock()
	t.spans = append(t.spans, span{layer: layerOp, kind: kind.String(), op: id, server: -1, seg: seg, start: start, end: end, failed: failed})
	t.mu.Unlock()
}

// writeSpans dumps every span as tab-separated text.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "layer\tkind\top\tserver\tsegment\tstart_ns\tend_ns\tblocks\tbytes\tcanceled\tfailed")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%s\t%s\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%t\t%t\n",
			s.layer, s.kind, s.op, s.server, s.seg, s.start, s.end, s.blocks, s.bytes, s.canceled, s.failed)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- metadata boundary ----

// tracedMeta wraps the metadata.API the client is built on.
type tracedMeta struct {
	t   *tracer
	api metadata.API
}

func (t *tracer) wrapMeta(api metadata.API) metadata.API { return &tracedMeta{t: t, api: api} }

// Metadata span kinds, grouped the way the per-layer metrics report
// them: lock (acquire and release), lookup (reads), commit (writes
// through the consensus log).
const (
	metaLock   = "lock"
	metaLookup = "lookup"
	metaCommit = "commit"
)

func (m *tracedMeta) do(kind, seg string, f func() error) error {
	s := m.t.call(layerMeta, kind, -1, seg)
	err := f()
	m.t.finish(s, err)
	return err
}

func (m *tracedMeta) CreateSegment(seg metadata.Segment) error {
	return m.do(metaCommit, seg.Name, func() error { return m.api.CreateSegment(seg) })
}

func (m *tracedMeta) UpdateSegment(seg metadata.Segment) error {
	return m.do(metaCommit, seg.Name, func() error { return m.api.UpdateSegment(seg) })
}

func (m *tracedMeta) LookupSegment(name string) (metadata.Segment, error) {
	var seg metadata.Segment
	err := m.do(metaLookup, name, func() (err error) { seg, err = m.api.LookupSegment(name); return err })
	return seg, err
}

func (m *tracedMeta) DeleteSegment(name string) error {
	return m.do(metaCommit, name, func() error { return m.api.DeleteSegment(name) })
}

func (m *tracedMeta) ListSegments() []string {
	var out []string
	_ = m.do(metaLookup, "", func() error { out = m.api.ListSegments(); return nil })
	return out
}

func (m *tracedMeta) RegisterServer(info metadata.Server) error {
	return m.do(metaCommit, "", func() error { return m.api.RegisterServer(info) })
}

func (m *tracedMeta) UnregisterServer(addr string) error {
	return m.do(metaCommit, "", func() error { return m.api.UnregisterServer(addr) })
}

func (m *tracedMeta) SetServerState(addr string, state metadata.ServerState) error {
	return m.do(metaCommit, "", func() error { return m.api.SetServerState(addr, state) })
}

func (m *tracedMeta) Servers() []metadata.Server {
	var out []metadata.Server
	_ = m.do(metaLookup, "", func() error { out = m.api.Servers(); return nil })
	return out
}

func (m *tracedMeta) LockRead(ctx context.Context, name string) (func(), error) {
	return m.lock(name, func() (func(), error) { return m.api.LockRead(ctx, name) })
}

func (m *tracedMeta) LockWrite(ctx context.Context, name string) (func(), error) {
	return m.lock(name, func() (func(), error) { return m.api.LockWrite(ctx, name) })
}

// lock traces the acquire and, through the returned func, the release.
func (m *tracedMeta) lock(name string, acquire func() (func(), error)) (func(), error) {
	var unlock func()
	err := m.do(metaLock, name, func() (err error) { unlock, err = acquire(); return err })
	if err != nil {
		return unlock, err
	}
	return func() {
		_ = m.do(metaLock, name, func() error { unlock(); return nil })
	}, nil
}

// ---- client-side transport boundary ----

// tracedConn wraps the transport.Client attached to the robust client.
// It has every method *transport.Client has, so the client's
// capability probes (Batcher, Scrubber, GetStream, PutStream, Ping)
// take the same branches as on the bare connection.
type tracedConn struct {
	t   *tracer
	srv int16
	c   *transport.Client
}

func (t *tracer) wrapClient(addr string, c *transport.Client) *tracedConn {
	return &tracedConn{t: t, srv: t.serverNum(addr), c: c}
}

func (w *tracedConn) open(kind, seg string, indices []int) *span {
	s := w.t.call(layerClient, kind, w.srv, seg)
	if s != nil {
		s.indices = indices
		s.blocks = len(indices)
	}
	return s
}

func (w *tracedConn) Put(ctx context.Context, segment string, index int, data []byte) error {
	s := w.open("put", segment, []int{index})
	err := w.c.Put(ctx, segment, index, data)
	if s != nil {
		s.bytes = int64(len(data))
	}
	w.t.finish(s, err)
	return err
}

func (w *tracedConn) Get(ctx context.Context, segment string, index int) ([]byte, error) {
	s := w.open("get", segment, []int{index})
	b, err := w.c.Get(ctx, segment, index)
	if s != nil {
		s.bytes = int64(len(b))
	}
	w.t.finish(s, err)
	return b, err
}

func (w *tracedConn) Delete(ctx context.Context, segment string, index int) error {
	s := w.open("delete", segment, []int{index})
	err := w.c.Delete(ctx, segment, index)
	w.t.finish(s, err)
	return err
}

func (w *tracedConn) List(ctx context.Context, segment string) ([]int, error) {
	s := w.open("other", segment, nil)
	out, err := w.c.List(ctx, segment)
	w.t.finish(s, err)
	return out, err
}

func (w *tracedConn) Close() error { return w.c.Close() }

func (w *tracedConn) Addr() string { return w.c.Addr() }

func (w *tracedConn) PutBatch(ctx context.Context, segment string, puts []blockstore.BatchPut) []error {
	s := w.open("putbatch", segment, putIndices(puts))
	errs := w.c.PutBatch(ctx, segment, puts)
	if s != nil {
		s.bytes = putBytes(puts)
	}
	w.t.finish(s, firstErr(errs))
	return errs
}

func (w *tracedConn) GetBatch(ctx context.Context, segment string, indices []int) ([][]byte, []error) {
	s := w.open("getbatch", segment, indices)
	datas, errs := w.c.GetBatch(ctx, segment, indices)
	if s != nil {
		for _, d := range datas {
			s.bytes += int64(len(d))
		}
	}
	w.t.finish(s, firstErr(errs))
	return datas, errs
}

func (w *tracedConn) DeleteBatch(ctx context.Context, segment string, indices []int) []error {
	s := w.open("delete", segment, indices)
	errs := w.c.DeleteBatch(ctx, segment, indices)
	w.t.finish(s, firstErr(errs))
	return errs
}

func (w *tracedConn) Scrub(ctx context.Context, segment string) ([]int, error) {
	s := w.open("other", segment, nil)
	out, err := w.c.Scrub(ctx, segment)
	w.t.finish(s, err)
	return out, err
}

func (w *tracedConn) GetStream(ctx context.Context, segment string, indices []int, deliver func(index int, data []byte, err error)) error {
	s := w.open("getstream", segment, indices)
	var n atomic.Int64
	err := w.c.GetStream(ctx, segment, indices, func(index int, data []byte, err error) {
		n.Add(int64(len(data)))
		deliver(index, data, err)
	})
	if s != nil {
		s.bytes = n.Load()
	}
	w.t.finish(s, err)
	return err
}

func (w *tracedConn) PutStream(ctx context.Context, segment string, puts []blockstore.BatchPut, acked func(i int, err error)) error {
	s := w.open("putstream", segment, putIndices(puts))
	err := w.c.PutStream(ctx, segment, puts, acked)
	if s != nil {
		s.bytes = putBytes(puts)
	}
	w.t.finish(s, err)
	return err
}

func (w *tracedConn) Ping(ctx context.Context) error {
	s := w.open("other", "", nil)
	err := w.c.Ping(ctx)
	w.t.finish(s, err)
	return err
}

func putIndices(puts []blockstore.BatchPut) []int {
	out := make([]int, len(puts))
	for i, p := range puts {
		out[i] = p.Index
	}
	return out
}

func putBytes(puts []blockstore.BatchPut) int64 {
	var n int64
	for _, p := range puts {
		n += int64(len(p.Data))
	}
	return n
}

// firstErr condenses per-entry errors: nil when every entry worked,
// else a cancellation if any entry was canceled, else the first error.
func firstErr(errs []error) error {
	var out error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if out == nil || errors.Is(e, context.Canceled) {
			out = e
		}
	}
	return out
}

// ---- server-side store boundary ----

// tracedStore wraps the store a transport.Server serves. The
// benchmark serves a MemStore (a Batcher) or a SlowStore over a
// FileStore (neither Batcher nor Scrubber); wrapServer returns the
// variant with the same optional interfaces, so the server's type
// assertions choose the same paths as on the bare store.
type tracedStore struct {
	t     *tracer
	srv   int16
	inner blockstore.Store
}

// tracedBatchStore is tracedStore plus the Batcher methods.
type tracedBatchStore struct{ *tracedStore }

var _ blockstore.Batcher = tracedBatchStore{}

func (t *tracer) wrapServer(addr string, inner blockstore.Store) blockstore.Store {
	base := &tracedStore{t: t, srv: t.serverNum(addr), inner: inner}
	if _, ok := inner.(blockstore.Batcher); ok {
		return tracedBatchStore{base}
	}
	return base
}

func (w *tracedStore) open(kind, seg string, indices []int) *span {
	s := w.t.call(layerServer, kind, w.srv, seg)
	if s != nil {
		s.indices = indices
		s.blocks = len(indices)
	}
	return s
}

func (w *tracedStore) Put(ctx context.Context, segment string, index int, data []byte) error {
	s := w.open("put", segment, []int{index})
	err := w.inner.Put(ctx, segment, index, data)
	if s != nil {
		s.bytes = int64(len(data))
	}
	w.t.finish(s, err)
	return err
}

func (w *tracedStore) Get(ctx context.Context, segment string, index int) ([]byte, error) {
	s := w.open("get", segment, []int{index})
	b, err := w.inner.Get(ctx, segment, index)
	if s != nil {
		s.bytes = int64(len(b))
	}
	w.t.finish(s, err)
	return b, err
}

func (w *tracedStore) Delete(ctx context.Context, segment string, index int) error {
	s := w.open("delete", segment, []int{index})
	err := w.inner.Delete(ctx, segment, index)
	w.t.finish(s, err)
	return err
}

func (w *tracedStore) List(ctx context.Context, segment string) ([]int, error) {
	s := w.open("other", segment, nil)
	out, err := w.inner.List(ctx, segment)
	w.t.finish(s, err)
	return out, err
}

func (w *tracedStore) Close() error { return w.inner.Close() }

func (w tracedBatchStore) PutBatch(ctx context.Context, segment string, puts []blockstore.BatchPut) []error {
	s := w.open("put", segment, putIndices(puts))
	errs := w.inner.(blockstore.Batcher).PutBatch(ctx, segment, puts)
	if s != nil {
		s.bytes = putBytes(puts)
	}
	w.t.finish(s, firstErr(errs))
	return errs
}

func (w tracedBatchStore) GetBatch(ctx context.Context, segment string, indices []int) ([][]byte, []error) {
	s := w.open("get", segment, indices)
	datas, errs := w.inner.(blockstore.Batcher).GetBatch(ctx, segment, indices)
	if s != nil {
		for _, d := range datas {
			s.bytes += int64(len(d))
		}
	}
	w.t.finish(s, firstErr(errs))
	return datas, errs
}

func (w tracedBatchStore) DeleteBatch(ctx context.Context, segment string, indices []int) []error {
	s := w.open("delete", segment, indices)
	errs := w.inner.(blockstore.Batcher).DeleteBatch(ctx, segment, indices)
	w.t.finish(s, firstErr(errs))
	return errs
}

// spanFile names a run's span dump.
func spanFile(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-%d.tsv", workload, seed))
}
