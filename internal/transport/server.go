package transport

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/blockstore"
	"repro/internal/obs"
)

// ServerOptions configure a block server.
type ServerOptions struct {
	// Admission optionally gates GET/PUT requests (§5.4). A refused
	// request is answered with a BUSY status rather than queued
	// forever when AdmissionWait is false.
	Admission admission.Controller
	// Logger receives connection-level errors; nil discards them.
	Logger *log.Logger
	// Obs, when non-nil, receives server metrics (transport_server_*:
	// per-op counts and latency, open connections, errors, admission
	// refusals).
	Obs *obs.Registry
}

// serverMetrics are the server-side metric handles; all nil (no-op)
// when observability is disabled.
type serverMetrics struct {
	conns       *obs.Gauge
	errors      *obs.Counter
	busy        *obs.Counter
	batchBlocks *obs.Counter
	// blocksStored counts blocks the store accepted, whichever put
	// path carried them (v1 PUT, PUTBATCH, PUTSTREAM).
	blocksStored *obs.Counter
	ops          map[byte]*obs.Counter
	opSeconds    map[byte]*obs.Histogram

	muxStreams  *obs.Counter
	muxResets   *obs.Counter
	muxStalls   *obs.Counter
	muxInflight *obs.Gauge
}

func newServerMetrics(r *obs.Registry) serverMetrics {
	m := serverMetrics{
		conns:        r.Gauge("transport_server_conns"),
		errors:       r.Counter("transport_server_errors_total"),
		busy:         r.Counter("transport_server_busy_total"),
		batchBlocks:  r.Counter("transport_server_batch_blocks_total"),
		blocksStored: r.Counter("transport_server_blocks_stored_total"),
		// Mux depth/stall accounting: streams dispatched, streams the
		// server had to reset, response writers blocked on client
		// flow-control credit, and current concurrent streams.
		muxStreams:  r.Counter("transport_server_mux_streams_total"),
		muxResets:   r.Counter("transport_server_mux_resets_total"),
		muxStalls:   r.Counter("transport_server_mux_flow_stalls_total"),
		muxInflight: r.Gauge("transport_server_mux_inflight"),
	}
	if r != nil {
		// Metric names are spelled out as literals (not assembled at
		// runtime) so the obshygiene analyzer can vet the namespace.
		m.ops = make(map[byte]*obs.Counter, 12)
		m.opSeconds = make(map[byte]*obs.Histogram, 12)
		reg := func(op byte, total *obs.Counter, seconds *obs.Histogram) {
			m.ops[op] = total
			m.opSeconds[op] = seconds
		}
		reg(opPut, r.Counter("transport_server_put_total"), r.Histogram("transport_server_put_seconds"))
		reg(opGet, r.Counter("transport_server_get_total"), r.Histogram("transport_server_get_seconds"))
		reg(opDelete, r.Counter("transport_server_delete_total"), r.Histogram("transport_server_delete_seconds"))
		reg(opList, r.Counter("transport_server_list_total"), r.Histogram("transport_server_list_seconds"))
		reg(opPing, r.Counter("transport_server_ping_total"), r.Histogram("transport_server_ping_seconds"))
		reg(opScrub, r.Counter("transport_server_scrub_total"), r.Histogram("transport_server_scrub_seconds"))
		reg(opPutBatch, r.Counter("transport_server_put_batch_total"), r.Histogram("transport_server_put_batch_seconds"))
		reg(opGetBatch, r.Counter("transport_server_get_batch_total"), r.Histogram("transport_server_get_batch_seconds"))
		reg(opDeleteBatch, r.Counter("transport_server_delete_batch_total"), r.Histogram("transport_server_delete_batch_seconds"))
		reg(opCaps, r.Counter("transport_server_caps_total"), r.Histogram("transport_server_caps_seconds"))
		reg(opMuxUpgrade, r.Counter("transport_server_mux_upgrade_total"), r.Histogram("transport_server_mux_upgrade_seconds"))
		reg(opPutStream, r.Counter("transport_server_put_stream_total"), r.Histogram("transport_server_put_stream_seconds"))
	}
	return m
}

// Server exposes a blockstore.Store over the block protocol.
type Server struct {
	store blockstore.Store
	opts  ServerOptions
	m     serverMetrics
	ln    net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a store. Call Serve (usually in a goroutine) with a
// listener, or ListenAndServe.
func NewServer(store blockstore.Store, opts ServerOptions) *Server {
	return &Server{
		store: store,
		opts:  opts,
		m:     newServerMetrics(opts.Obs),
		conns: make(map[net.Conn]struct{}),
	}
}

// ListenAndServe listens on addr ("host:port", ":0" for ephemeral)
// and serves until Close. It returns the bound address on a channel
// usable before blocking? — instead use Listen + Serve for that.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("transport: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes all connections, and waits for the
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf(format, args...)
	}
}

// handle serves one connection: a sequence of request/response
// exchanges. The per-connection context is canceled when the
// connection drops, which aborts in-flight store operations — the
// server side of RobuSTore's request cancellation (§5.3.3): a client
// that hangs up cancels its queued work.
func (s *Server) handle(conn net.Conn) {
	s.m.conns.Add(1)
	defer func() {
		s.m.conns.Add(-1)
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The per-connection ctx cancels only when this loop exits (the
	// deferred cancel aborts in-flight store work); mid-loop it is
	// never done, and a dropped conn unblocks readFrame directly.
	//lint:ignore ctxcancel per-conn ctx cancels on loop exit; readFrame unblocks via conn close
	for {
		body, err := readFrame(conn)
		if err != nil {
			return // EOF or broken connection
		}
		req, err := decodeRequest(body)
		if err != nil {
			s.logf("transport: bad request from %v: %v", conn.RemoteAddr(), err)
			return
		}
		switch req.op {
		case opMuxUpgrade:
			s.m.ops[req.op].Inc()
			served, err := s.upgradeMux(ctx, conn, req)
			if served || err != nil {
				return // the mux loop consumed the connection
			}
		case opPutBatch, opGetBatch, opDeleteBatch, opCaps:
			if err := s.handleBatch(ctx, conn, req); err != nil {
				return
			}
		default:
			status, payload := s.dispatch(ctx, req)
			if err := writeFrame(conn, []byte{status}, payload); err != nil {
				return
			}
		}
	}
}

// handleBatch dispatches one batch request and writes its multi-chunk
// response with vectored I/O, so stored blocks stream out of a GET
// batch without being copied into a contiguous response body.
func (s *Server) handleBatch(ctx context.Context, conn net.Conn, req request) error {
	start := time.Now()
	s.m.ops[req.op].Inc()
	scratch := getScratch()
	defer putScratch(scratch)
	status, chunks := s.dispatchBatch(ctx, req, scratch)
	s.m.opSeconds[req.op].Observe(time.Since(start).Seconds())
	if status != statusOK {
		s.m.errors.Inc()
	}
	sb := [1]byte{status}
	all := make([][]byte, 0, len(chunks)+1)
	all = append(all, sb[:])
	all = append(all, chunks...)
	return writeFrameVec(conn, all)
}

// batchStatus maps a per-entry store error onto a wire status and
// message.
func batchStatus(err error) (byte, []byte) {
	switch {
	case err == nil:
		return statusOK, nil
	case errors.Is(err, blockstore.ErrNotFound):
		return statusNotFound, nil
	default:
		return statusErr, []byte(err.Error())
	}
}

// dispatchBatch executes one batch request. Per-entry failures are
// reported in the entry's status — one bad block never fails its
// batch; only a malformed request fails wholesale. Entry headers are
// written into scratch (pre-sized so appends never relocate the chunks
// already referencing it); entry bytes are referenced in place.
func (s *Server) dispatchBatch(ctx context.Context, req request, scratch *[]byte) (byte, [][]byte) {
	if req.op == opCaps {
		return statusOK, [][]byte{encodeCaps(capPutBatch | capGetBatch | capDeleteBatch | capMux | capPutStream)}
	}
	// Admission control guards the batch data paths exactly like the
	// single-block ones: one admit per request, sized by its payload.
	if s.opts.Admission != nil && (req.op == opGetBatch || req.op == opPutBatch) {
		release, err := s.opts.Admission.Admit(ctx, admission.Request{Bytes: int64(len(req.payload))})
		if err != nil {
			s.m.busy.Inc()
			return statusBusy, [][]byte{[]byte(err.Error())}
		}
		defer release()
	}
	switch req.op {
	case opPutBatch:
		entries, err := decodePutEntries(req.index, req.payload)
		if err != nil {
			return statusErr, [][]byte{[]byte(err.Error())}
		}
		s.m.batchBlocks.Add(int64(len(entries)))
		errs := s.putEntries(ctx, req.segment, entries)
		for _, err := range errs {
			if err == nil {
				s.m.blocksStored.Inc()
			}
		}
		return statusOK, appendStatusEntries(scratch, entryIndices(entries), errs)
	case opDeleteBatch:
		indices, err := decodeIndices(req.payload)
		if err != nil || len(indices) != req.index {
			return statusErr, [][]byte{[]byte("transport: malformed delete batch")}
		}
		s.m.batchBlocks.Add(int64(len(indices)))
		var errs []error
		if bs, ok := s.store.(blockstore.Batcher); ok {
			errs = bs.DeleteBatch(ctx, req.segment, indices)
		} else {
			errs = make([]error, len(indices))
			for i, idx := range indices {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = s.store.Delete(ctx, req.segment, idx)
			}
		}
		return statusOK, appendStatusEntries(scratch, indices, errs)
	case opGetBatch:
		indices, err := decodeIndices(req.payload)
		if err != nil || len(indices) != req.index {
			return statusErr, [][]byte{[]byte("transport: malformed get batch")}
		}
		s.m.batchBlocks.Add(int64(len(indices)))
		var datas [][]byte
		var errs []error
		if bs, ok := s.store.(blockstore.Batcher); ok {
			datas, errs = bs.GetBatch(ctx, req.segment, indices)
		} else {
			datas = make([][]byte, len(indices))
			errs = make([]error, len(indices))
			for i, idx := range indices {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				datas[i], errs[i] = s.store.Get(ctx, req.segment, idx)
			}
		}
		growScratch(scratch, batchResultOverhead*len(indices))
		chunks := make([][]byte, 0, 2*len(indices))
		// A response frame is bounded by MaxFrame; entries that would
		// push past it are answered with an error status so the client
		// can fetch them singly (its windowing makes this rare).
		total := 1 + batchResultOverhead*len(indices)
		for i, idx := range indices {
			status, msg := batchStatus(errs[i])
			bytes := msg
			if status == statusOK {
				bytes = datas[i]
			}
			if total+len(bytes) > MaxFrame {
				status, bytes = statusErr, []byte("transport: batch response overflow")
			}
			total += len(bytes)
			chunks = appendResultChunks(scratch, chunks, idx, status, bytes)
		}
		return statusOK, chunks
	}
	return statusErr, [][]byte{[]byte(fmt.Sprintf("unknown batch op %d", req.op))}
}

// putEntries applies a PUTBATCH through the store's batch fast path
// when it has one.
func (s *Server) putEntries(ctx context.Context, segment string, entries []putEntry) []error {
	if bs, ok := s.store.(blockstore.Batcher); ok {
		puts := make([]blockstore.BatchPut, len(entries))
		for i, e := range entries {
			puts[i] = blockstore.BatchPut{Index: e.index, Data: e.data}
		}
		return bs.PutBatch(ctx, segment, puts)
	}
	errs := make([]error, len(entries))
	for i, e := range entries {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		errs[i] = s.store.Put(ctx, segment, e.index, e.data)
	}
	return errs
}

func entryIndices(entries []putEntry) []int {
	out := make([]int, len(entries))
	for i, e := range entries {
		out[i] = e.index
	}
	return out
}

// growScratch pre-sizes scratch so subsequent appends never relocate
// the backing array out from under chunks that already reference it.
func growScratch(scratch *[]byte, need int) {
	if cap(*scratch) < need {
		*scratch = make([]byte, 0, need)
	}
}

// appendResultChunks appends one batch response entry (header into
// scratch, bytes referenced in place) to the chunk list.
func appendResultChunks(scratch *[]byte, chunks [][]byte, index int, status byte, bytes []byte) [][]byte {
	off := len(*scratch)
	*scratch = appendBatchResultHeader(*scratch, index, status, len(bytes))
	chunks = append(chunks, (*scratch)[off:len(*scratch)])
	if len(bytes) > 0 {
		chunks = append(chunks, bytes)
	}
	return chunks
}

// appendStatusEntries builds the response entries for a PUT or DELETE
// batch: per-index status plus error text.
func appendStatusEntries(scratch *[]byte, indices []int, errs []error) [][]byte {
	growScratch(scratch, batchResultOverhead*len(indices))
	chunks := make([][]byte, 0, 2*len(indices))
	for i, idx := range indices {
		status, msg := batchStatus(errs[i])
		chunks = appendResultChunks(scratch, chunks, idx, status, msg)
	}
	return chunks
}

// dispatch executes one request against the store and records per-op
// metrics (count, latency, errors).
func (s *Server) dispatch(ctx context.Context, req request) (status byte, payload []byte) {
	start := time.Now()
	s.m.ops[req.op].Inc() // nil map yields a nil (no-op) counter
	defer func() {
		s.m.opSeconds[req.op].Observe(time.Since(start).Seconds())
		switch status {
		case statusErr:
			s.m.errors.Inc()
		case statusBusy:
			s.m.busy.Inc()
		}
	}()
	// Admission control guards the data-path operations.
	if s.opts.Admission != nil && (req.op == opGet || req.op == opPut) {
		release, err := s.opts.Admission.Admit(ctx, admission.Request{Bytes: int64(len(req.payload))})
		if err != nil {
			return statusBusy, []byte(err.Error())
		}
		defer release()
	}
	switch req.op {
	case opPing:
		return statusOK, nil
	case opPut:
		if err := s.store.Put(ctx, req.segment, req.index, req.payload); err != nil {
			return statusErr, []byte(err.Error())
		}
		s.m.blocksStored.Inc()
		return statusOK, nil
	case opGet:
		b, err := s.store.Get(ctx, req.segment, req.index)
		if errors.Is(err, blockstore.ErrNotFound) {
			return statusNotFound, nil
		}
		if err != nil {
			return statusErr, []byte(err.Error())
		}
		return statusOK, b
	case opDelete:
		if err := s.store.Delete(ctx, req.segment, req.index); err != nil {
			return statusErr, []byte(err.Error())
		}
		return statusOK, nil
	case opList:
		idx, err := s.store.List(ctx, req.segment)
		if err != nil {
			return statusErr, []byte(err.Error())
		}
		return statusOK, encodeIndices(idx)
	case opScrub:
		sc, ok := s.store.(blockstore.Scrubber)
		if !ok {
			return statusUnsupported, []byte("store has no integrity framing")
		}
		bad, err := sc.Scrub(ctx, req.segment)
		if errors.Is(err, blockstore.ErrScrubUnsupported) {
			// A wrapper (e.g. fault injection) may carry the method but
			// sit over a store that cannot verify.
			return statusUnsupported, []byte(err.Error())
		}
		if err != nil {
			return statusErr, []byte(err.Error())
		}
		return statusOK, encodeIndices(bad)
	default:
		return statusErr, []byte(fmt.Sprintf("unknown op %d", req.op))
	}
}
