package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
)

// serverMuxDefaults bound what a server accepts in the SETTINGS
// preface regardless of the client's proposal.
var serverMuxDefaults = muxSettings{window: defaultMuxWindow, maxStreams: defaultMuxStreams}

// handle serves one connection: the SETTINGS preface, then streams
// until the connection drops. Every stream's context derives from the
// connection's, which is canceled when the connection drops — the
// server side of RobuSTore's request cancellation (§5.3.3): a client
// that hangs up cancels its queued work. A connection whose first
// frame is not a well-formed SETTINGS is closed with nothing served.
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
	// One reused frame buffer for the connection: a frame's chunk is
	// valid only until the next read, so every consumer copies what it
	// keeps (DESIGN.md §10).
	mr := &muxReader{r: bufio.NewReaderSize(conn, muxReadAhead)}
	peer, err := readSettings(mr)
	if err != nil {
		if err != io.EOF && !errors.Is(err, net.ErrClosed) {
			s.logf("transport: bad preface from %v: %v", conn.RemoteAddr(), err)
		}
		return
	}
	chosen := serverMuxDefaults.negotiate(peer)
	w := &lockedWriter{w: conn}
	if err := writeSettings(w, chosen); err != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := &muxServerConn{
		s:        s,
		conn:     conn,
		w:        w,
		ctl:      newCtlQueue(),
		settings: chosen,
		ctx:      ctx,
		streams:  make(map[uint32]*muxServerStream),
	}
	// Control frames go out async so the serve read loop never blocks
	// on the write side; a control write failure means the conn is
	// broken, so closing it unblocks the read and ends serve.
	go m.ctl.run(m.w, func(error) { conn.Close() })
	m.serve(mr)
	// serve's teardown closed the queue; closing the conn unblocks any
	// control write still in flight so the writer goroutine can exit.
	conn.Close()
	<-m.ctl.done
}

// muxServerConn is the server half of one multiplexed connection: the
// serve loop reassembles per-stream requests and dispatches each as
// its own goroutine with its own context, so a RESET (or a client
// abandoning a timed-out stream) cancels exactly one request.
type muxServerConn struct {
	s        *Server
	conn     net.Conn
	w        *lockedWriter
	ctl      *ctlQueue
	settings muxSettings
	ctx      context.Context

	mu      sync.Mutex
	streams map[uint32]*muxServerStream
	wg      sync.WaitGroup
}

// muxServerStream is one stream's server-side state.
type muxServerStream struct {
	id     uint32
	buf    []byte
	fin    bool
	stream *muxPutStream // non-nil once the stream switched to PUTSTREAM mode
	send   *creditGate   // response-direction flow control
	cancel context.CancelFunc
	done   bool
}

// serve is the connection's read loop after the preface. It lives
// exactly as long as the connection: a dropped conn (or Server.Close)
// unblocks the read, and teardown cancels every in-flight stream. Any
// frame a client may not send — a second SETTINGS included — kills
// the connection.
func (m *muxServerConn) serve(mr *muxReader) {
	defer m.teardown()
	//lint:ignore ctxcancel conn-lifetime loop; teardown cancels per-stream ctxs and conn close unblocks the read
	for {
		f, err := mr.next()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				m.s.logf("transport: mux connection from %v: %v", m.conn.RemoteAddr(), err)
			}
			return // EOF, broken connection or malformed frame
		}
		switch f.kind {
		case muxKindReq:
			m.handleReq(f)
		case muxKindWindow:
			m.mu.Lock()
			st, ok := m.streams[f.id]
			m.mu.Unlock()
			if ok {
				st.send.grant(f.credit)
			}
		case muxKindReset:
			m.resetStream(f.id, nil)
		default:
			m.s.logf("transport: unexpected mux frame kind %d from %v", f.kind, m.conn.RemoteAddr())
			return
		}
	}
}

// handleReq folds one REQ chunk into its stream, dispatching the
// request when the FIN chunk completes it. Per-stream violations
// (limit exceeded, oversized body, duplicate id after FIN, malformed
// request) RESET that stream only — never the connection.
func (m *muxServerConn) handleReq(f muxFrame) {
	m.mu.Lock()
	st, ok := m.streams[f.id]
	if ok && st.fin {
		// Duplicate request id: frames for a stream that already
		// finished its request half. Kill that stream, not the conn —
		// its neighbors are innocent.
		m.mu.Unlock()
		m.resetStream(f.id, []byte("transport: duplicate mux stream id"))
		return
	}
	if !ok {
		if len(m.streams) >= m.settings.maxStreams {
			m.mu.Unlock()
			m.sendReset(f.id, "transport: mux stream limit exceeded")
			return
		}
		st = &muxServerStream{id: f.id, send: newCreditGate(m.settings.window)}
		m.streams[f.id] = st
	}
	m.mu.Unlock()

	fin := f.flags&muxFlagFIN != 0
	if st.stream != nil {
		// PUTSTREAM mode: entry bytes flow straight to the consumer
		// goroutine; it grants credit as it drains them, which is what
		// bounds server-side buffering by the stream window.
		if fin {
			st.fin = true
		}
		if err := st.stream.feed(f.chunk, fin); err != nil {
			m.resetStream(f.id, []byte(err.Error()))
		}
		return
	}
	prev := len(st.buf)
	if prev+len(f.chunk) > MaxFrame {
		m.resetStream(f.id, []byte("transport: mux request body overflow"))
		return
	}
	// body aliases the connection's frame buffer until it is copied
	// into the stream: into st.buf for a unary request (exactly sized
	// when the request fits one frame), into the PUTSTREAM buffer for
	// entry bytes.
	body := f.chunk
	if prev > 0 {
		st.buf = append(st.buf, f.chunk...)
		body = st.buf
	}
	if op, hdrLen, ok := peekRequest(body); ok && op == opPutStream {
		m.startPutStream(st, body, hdrLen, prev, fin)
		return
	}
	if prev == 0 && len(f.chunk) > 0 {
		st.buf = append([]byte(nil), f.chunk...)
	}
	if !fin {
		// Return the consumed credit (async, so the read loop never
		// blocks on the write side) so the client keeps streaming.
		if len(f.chunk) > 0 {
			m.ctl.grant(f.id, len(f.chunk))
		}
		return
	}
	st.fin = true
	req, err := decodeRequest(st.buf)
	if err != nil {
		m.resetStream(f.id, []byte(err.Error()))
		return
	}
	sctx, cancel := context.WithCancel(m.ctx)
	st.cancel = cancel
	m.s.m.muxStreams.Inc()
	m.wg.Add(1)
	go m.serveStream(sctx, st, req)
}

// startPutStream switches a stream into incremental PUTSTREAM mode
// the moment its request header is complete: a consumer goroutine
// starts draining entries, the entry bytes already received behind
// the header are fed to it, and later REQ chunks feed it directly
// without whole-request reassembly. body is the request so far; prev
// of its bytes arrived in earlier chunks.
func (m *muxServerConn) startPutStream(st *muxServerStream, body []byte, hdrLen, prev int, fin bool) {
	req, err := decodeRequest(body[:hdrLen])
	if err != nil {
		m.resetStream(st.id, []byte(err.Error()))
		return
	}
	ps := newMuxPutStream(req.segment, req.index, m.settings.window)
	st.stream = ps
	st.fin = fin
	st.buf = nil
	// Chunks that arrived before the header completed were granted on
	// receipt; of this chunk only the header bytes are consumed now —
	// entry bytes are granted as the consumer drains them.
	if hb := hdrLen - prev; hb > 0 && !fin {
		m.ctl.grant(st.id, hb)
	}
	sctx, cancel := context.WithCancel(m.ctx)
	st.cancel = cancel
	m.s.m.muxStreams.Inc()
	m.wg.Add(1)
	go m.servePutStream(sctx, st, ps)
	if err := ps.feed(body[hdrLen:], fin); err != nil {
		m.resetStream(st.id, []byte(err.Error()))
	}
}

// sendReset tells the client to abandon one stream.
func (m *muxServerConn) sendReset(id uint32, msg string) {
	m.s.m.muxResets.Inc()
	m.ctl.reset(id, msg)
}

// resetStream aborts one stream: its dispatch context is canceled,
// its response writer released, and (when msg is non-nil) the client
// told to stop. Unknown ids are ignored — resets race completion.
func (m *muxServerConn) resetStream(id uint32, msg []byte) {
	m.mu.Lock()
	st, ok := m.streams[id]
	if ok {
		delete(m.streams, id)
	}
	m.mu.Unlock()
	if !ok {
		return
	}
	st.send.close(fmt.Errorf("transport: mux stream %d reset", id))
	if st.stream != nil {
		st.stream.fail(fmt.Errorf("transport: mux stream %d reset", id))
	}
	if st.cancel != nil {
		st.cancel()
	}
	if msg != nil {
		m.sendReset(id, string(msg))
	}
}

// finishStream retires a completed stream.
func (m *muxServerConn) finishStream(st *muxServerStream) {
	m.retire(st)
	st.send.close(fmt.Errorf("transport: mux stream %d finished", st.id))
	if st.stream != nil {
		// If the consumer quit early (broken conn mid-ack) the read
		// loop may still feed the stream; failing it makes feed drop
		// further chunks instead of buffering them forever.
		st.stream.fail(fmt.Errorf("transport: mux stream %d finished", st.id))
	}
	if st.cancel != nil {
		st.cancel()
	}
}

// teardown fails every in-flight stream and waits for their handlers.
func (m *muxServerConn) teardown() {
	m.ctl.close()
	m.mu.Lock()
	streams := make([]*muxServerStream, 0, len(m.streams))
	for _, st := range m.streams {
		streams = append(streams, st)
	}
	m.streams = make(map[uint32]*muxServerStream)
	m.mu.Unlock()
	for _, st := range streams {
		st.send.close(fmt.Errorf("transport: mux connection closed"))
		if st.stream != nil {
			st.stream.fail(fmt.Errorf("transport: mux connection closed"))
		}
		if st.cancel != nil {
			st.cancel()
		}
	}
	m.wg.Wait()
}

// serveStream executes one reassembled request and streams its
// response back as credit-gated RESP chunks. It runs as its own
// goroutine: a 16 MB GET, a scrub, and a PING proceed concurrently on
// one connection, each blocking only on its own stream's window.
func (m *muxServerConn) serveStream(ctx context.Context, st *muxServerStream, req request) {
	defer m.wg.Done()
	defer m.finishStream(st)
	m.s.m.muxInflight.Add(1)
	defer m.s.m.muxInflight.Add(-1)
	status, payload := m.s.dispatch(ctx, req)
	m.writeResponse(st, status, payload)
}

// writeResponse streams one response as chunked RESP frames, taking
// per-stream credit before each chunk so a slow or abandoned reader
// stalls only this stream. The status rides on every frame (first
// wins client-side), so even an empty response carries it.
func (m *muxServerConn) writeResponse(st *muxServerStream, status byte, payload []byte) {
	if len(payload) == 0 {
		m.retire(st)
		writeMuxFrame(m.w, muxKindResp, st.id, []byte{muxFlagFIN, status}, nil)
		return
	}
	stalled := func() { m.s.m.muxStalls.Inc() }
	for len(payload) > 0 {
		n, err := st.send.take(len(payload), stalled)
		if err != nil {
			return // stream reset or connection down
		}
		fin := byte(0)
		if n == len(payload) {
			fin = muxFlagFIN
			m.retire(st)
		}
		if err := writeMuxFrame(m.w, muxKindResp, st.id, []byte{fin, status}, payload[:n]); err != nil {
			return
		}
		payload = payload[n:]
	}
}

// retire drops a stream from the open set just before its FIN goes
// out: the client may open its next stream the moment it sees the
// FIN, and that stream must not find this one still counted against
// the stream limit. finishStream does the rest of the cleanup.
func (m *muxServerConn) retire(st *muxServerStream) {
	m.mu.Lock()
	if m.streams[st.id] == st {
		delete(m.streams, st.id)
	}
	m.mu.Unlock()
}

// muxPutStream carries one PUTSTREAM request's entries from the
// connection read loop to its consumer goroutine (DESIGN.md §10).
// feed parses entry headers as chunks arrive and copies each entry's
// data into a buffer of exactly its size, leased when its header
// completes; next hands the consumer the oldest complete entry in
// place, and done releases its buffer once the store is finished with
// it. Entry data is copied once, never moved, appended to or regrown.
//
// An entry's credit is granted only after done, so the entry bytes
// received and not yet done never exceed the stream's window: flow
// control bounds the stream's buffers by what is actually in flight,
// and a client that sends past its credit is a protocol violation.
type muxPutStream struct {
	segment  string
	declared int // entry count from the request header's index field
	window   int // the stream's credit window

	mu    sync.Mutex
	cond  *sync.Cond
	fin   bool
	err   error
	inUse int // entry wire bytes received and not yet done

	// The entry being received (feed) ...
	hdr     [putEntryOverhead]byte // its header, possibly split across chunks
	nhdr    int
	fill    *[]byte // its data buffer once the header is complete
	fillIdx int
	nfill   int
	// ... the complete ones, oldest first from ready[head], and the one
	// next handed out.
	ready []streamEntry
	head  int
	held  streamEntry
}

// streamEntry is one PUTSTREAM entry whose data buffer is leased.
type streamEntry struct {
	idx  int
	data *[]byte
}

// putStreamBufPool recycles PUTSTREAM entry buffers. A stream's
// entries are usually all one block size, so a warm pool serves them
// without allocating.
var putStreamBufPool = sync.Pool{New: func() any { return new([]byte) }}

// putStreamBufLeases counts outstanding PUTSTREAM entry buffers; the
// tests pin it to zero after streams end by any path, so every buffer
// is provably returned exactly once.
var putStreamBufLeases atomic.Int64

// getPutStreamBuf leases a buffer of length n.
func getPutStreamBuf(n int) *[]byte {
	putStreamBufLeases.Add(1)
	b := putStreamBufPool.Get().(*[]byte)
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	*b = (*b)[:n]
	return b
}

// putPutStreamBuf releases a buffer.
func putPutStreamBuf(b *[]byte) {
	putStreamBufLeases.Add(-1)
	putStreamBufPool.Put(b)
}

func newMuxPutStream(segment string, declared, window int) *muxPutStream {
	p := &muxPutStream{segment: segment, declared: declared, window: window}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// feed copies one REQ chunk's entry bytes into their entries' buffers.
// Chunks after a failure or release are dropped — the reset is already
// on its way to the client. A malformed entry header fails the stream
// through next; bytes past the window also return the error.
func (p *muxPutStream) feed(chunk []byte, fin bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return nil
	}
	defer p.cond.Broadcast()
	if p.inUse += len(chunk); p.inUse > p.window {
		p.err = errors.New("transport: mux request body overflow")
		return p.err
	}
	for len(chunk) > 0 {
		if p.fill == nil {
			k := copy(p.hdr[p.nhdr:], chunk)
			p.nhdr += k
			chunk = chunk[k:]
			if p.nhdr < putEntryOverhead {
				break
			}
			idx := int(binary.BigEndian.Uint32(p.hdr[0:4]))
			n := int(binary.BigEndian.Uint32(p.hdr[4:8]))
			// An entry's credit is granted only after it is consumed, so
			// one larger than the window could never arrive whole.
			if idx < 0 || n < 0 || putEntryOverhead+n > p.window {
				p.err = fmt.Errorf("transport: malformed put stream entry (index %d, %d bytes; window %d)", idx, n, p.window)
				return nil
			}
			p.nhdr = 0
			p.fillIdx, p.nfill = idx, 0
			//lint:ignore poollease the entry buffer moves fill → ready → held under p.mu and is released exactly once, by done or by the stream's release
			p.fill = getPutStreamBuf(n)
		}
		k := copy((*p.fill)[p.nfill:], chunk)
		p.nfill += k
		chunk = chunk[k:]
		if p.nfill == len(*p.fill) {
			p.ready = append(p.ready, streamEntry{idx: p.fillIdx, data: p.fill})
			p.fill = nil
		}
	}
	if fin {
		p.fin = true
	}
	return nil
}

// fail wakes the consumer with a terminal error (stream reset,
// connection down). The first error wins.
func (p *muxPutStream) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// errPutStreamReleased fails a stream whose buffers were released.
var errPutStreamReleased = errors.New("transport: put stream released")

// release returns every entry buffer the stream still holds to the
// pool, exactly once. The stream's consumer calls it when it exits;
// the entry it last held is dead by then.
func (p *muxPutStream) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		p.err = errPutStreamReleased
	}
	p.doneLocked()
	for _, e := range p.ready[p.head:] {
		putPutStreamBuf(e.data)
	}
	p.ready, p.head = nil, 0
	if p.fill != nil {
		putPutStreamBuf(p.fill)
		p.fill = nil
	}
	p.cond.Broadcast()
}

// next blocks until the oldest entry is complete and returns it in
// place: data is valid until done. consumed is the wire bytes it
// covers (header + data) — the credit to hand back after done.
// Returns io.EOF once the FIN chunk arrived and every entry was
// consumed.
func (p *muxPutStream) next() (idx int, data []byte, consumed int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.doneLocked()
	for {
		if p.err != nil {
			return 0, nil, 0, p.err
		}
		if p.head < len(p.ready) {
			p.held = p.ready[p.head]
			p.ready[p.head] = streamEntry{}
			if p.head++; p.head == len(p.ready) {
				p.ready, p.head = p.ready[:0], 0
			}
			data = *p.held.data
			return p.held.idx, data, putEntryOverhead + len(data), nil
		}
		if p.fin {
			if p.fill == nil && p.nhdr == 0 {
				return 0, nil, 0, io.EOF
			}
			return 0, nil, 0, errors.New("transport: truncated put stream entry")
		}
		p.cond.Wait()
	}
}

// done releases the buffer of the entry next last handed out; its
// data is dead from here on.
func (p *muxPutStream) done() {
	p.mu.Lock()
	p.doneLocked()
	p.mu.Unlock()
}

func (p *muxPutStream) doneLocked() {
	if p.held.data == nil {
		return
	}
	p.inUse -= putEntryOverhead + len(*p.held.data)
	putPutStreamBuf(p.held.data)
	p.held = streamEntry{}
}

// servePutStream consumes one PUTSTREAM request's entries as they
// arrive, storing and acking each one immediately — the server half
// of the pipelined write path. Credit is granted per consumed entry,
// so a stalled store backpressures the client instead of buffering
// the request.
func (m *muxServerConn) servePutStream(ctx context.Context, st *muxServerStream, ps *muxPutStream) {
	defer m.wg.Done()
	defer m.finishStream(st)
	m.s.m.muxInflight.Add(1)
	defer m.s.m.muxInflight.Add(-1)
	start := time.Now()
	m.s.m.ops[opPutStream].Inc()
	defer func() {
		m.s.m.opSeconds[opPutStream].Observe(time.Since(start).Seconds())
	}()
	defer ps.release() // runs first: no entry is held past this point
	var ackBuf []byte
	count := 0
	for {
		if ctx.Err() != nil {
			return // connection tearing down; finishStream fails the feed
		}
		idx, data, consumed, err := ps.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			m.s.m.errors.Inc()
			m.resetStream(st.id, []byte(err.Error()))
			return
		}
		count++
		if count > ps.declared {
			m.s.m.errors.Inc()
			m.resetStream(st.id, []byte("transport: put stream entries exceed declared count"))
			return
		}
		m.s.m.batchBlocks.Inc()
		status, msg := m.putStreamEntry(ctx, ps.segment, idx, data)
		// The entry's region is free once the store is done with it;
		// only then may the client send its credit's worth more.
		ps.done()
		m.ctl.grant(st.id, consumed)
		ackBuf = appendBatchResultHeader(ackBuf[:0], idx, status, len(msg))
		ackBuf = append(ackBuf, msg...)
		if !m.writeAck(st, ackBuf) {
			return
		}
	}
	if count != ps.declared {
		m.s.m.errors.Inc()
		m.resetStream(st.id, []byte(fmt.Sprintf("transport: put stream ended after %d of %d entries", count, ps.declared)))
		return
	}
	m.retire(st)
	writeMuxFrame(m.w, muxKindResp, st.id, []byte{muxFlagFIN, statusOK}, nil)
}

// putStreamEntry stores one streamed entry under the same admission
// gate as the other data-path ops, sized by the entry rather than the
// whole (unbounded) stream.
func (m *muxServerConn) putStreamEntry(ctx context.Context, segment string, idx int, data []byte) (byte, []byte) {
	if m.s.opts.Admission != nil {
		release, err := m.s.opts.Admission.Admit(ctx, admission.Request{Bytes: int64(len(data))})
		if err != nil {
			m.s.m.busy.Inc()
			return statusBusy, []byte(err.Error())
		}
		defer release()
	}
	err := m.s.store.Put(ctx, segment, idx, data)
	if err == nil {
		m.s.m.blocksStored.Inc()
	}
	return batchStatus(err)
}

// writeAck streams one ack entry as credit-gated RESP chunks, FIN-less
// — the response half closes with an empty FIN after the last entry.
func (m *muxServerConn) writeAck(st *muxServerStream, ack []byte) bool {
	stalled := func() { m.s.m.muxStalls.Inc() }
	for len(ack) > 0 {
		n, err := st.send.take(len(ack), stalled)
		if err != nil {
			return false // stream reset or connection down
		}
		if err := writeMuxFrame(m.w, muxKindResp, st.id, []byte{0, statusOK}, ack[:n]); err != nil {
			return false
		}
		ack = ack[n:]
	}
	return true
}
