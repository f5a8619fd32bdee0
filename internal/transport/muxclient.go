package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
)

// errMuxConnClosed reports an exchange cut short by its mux
// connection dying (read error, protocol violation, or Close); the
// request may or may not have reached the server.
var errMuxConnClosed = errors.New("transport: mux connection closed")

// HealthReporter receives per-server outcomes from the transport
// layer itself — most importantly per-stream timeouts observed by the
// mux demux path, which a caller that already hedged away may never
// surface to the failure detector. *health.Tracker implements it.
type HealthReporter interface {
	ReportSuccess(addr string)
	ReportFailure(addr string)
}

// muxConn is the client half of one multiplexed connection: a demux
// goroutine routes incoming frames to per-stream state, exchanges run
// concurrently as streams, and a per-stream failure (timeout, reset)
// never touches the connection or its other streams.
type muxConn struct {
	c        *Client
	conn     net.Conn
	mr       *muxReader
	w        *lockedWriter
	ctl      *ctlQueue
	settings muxSettings
	slots    chan struct{} // bounds concurrently open streams

	mu      sync.Mutex
	streams map[uint32]*muxStream
	nextID  uint32
	dead    bool
	err     error

	done chan struct{} // closed when the demux loop exits
}

// muxStream is one in-flight exchange on a muxConn.
type muxStream struct {
	id   uint32
	send *creditGate // request-direction flow control

	mu        sync.Mutex
	status    byte
	gotStatus bool
	// onData, when set (under mu, before the request goes out),
	// receives OK-status response chunks as they arrive instead of
	// buffering them — the streaming-ack fast path. The chunk aliases
	// the connection's reused frame buffer and is valid only during the
	// call.
	onData func(chunk []byte)
	// A buffered response is read off the wire straight into its final
	// home: a single-frame response into resp, allocated at its exact
	// size; a multi-frame one into leased chunk-sized parts, filled in
	// turn and joined once by takeResponse. Nothing is appended to or
	// regrown.
	resp     []byte
	parts    []*[]byte
	size     int // buffered response bytes so far
	finished bool
	err      error
	done     chan struct{}
}

// respPartPool recycles the chunk-sized parts a multi-frame response
// is read into. A part is leased by the demux goroutine, parked on its
// stream, and released exactly once: by takeResponse after the stream
// finishes, or by addPart if the stream finished first.
var respPartPool = sync.Pool{New: func() any { return new([]byte) }}

// getRespPart leases an empty part with room for one chunk.
func getRespPart() *[]byte {
	b := respPartPool.Get().(*[]byte)
	if cap(*b) < muxChunkSize {
		*b = make([]byte, 0, muxChunkSize)
	}
	*b = (*b)[:0]
	return b
}

// putRespPart releases a part. Parts of any other size (see
// tailPart) are left to the collector.
func putRespPart(b *[]byte) {
	if cap(*b) == muxChunkSize {
		respPartPool.Put(b)
	}
}

// respTailMax is the largest remainder that gets a part of its own
// exact size instead of a pooled chunk-sized one: a response one
// envelope longer than a chunk multiple (a sealed 256 KiB share is
// 2×128 KiB + 8) should not pin a whole pooled part for 8 bytes.
const respTailMax = muxChunkSize / 8

// tailPart returns a part with room for more bytes, owned by the
// caller until it hands it back with addPart: the stream's last part
// while it has room (unparked, so a concurrent takeResponse cannot
// release it mid-read), else — when the response's last n bytes are
// all that is left and they are few — an exact-size part, else a
// fresh lease. Called by the demux goroutine only.
func (s *muxStream) tailPart(n int, last bool) *[]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k := len(s.parts); k > 0 && !s.finished {
		if p := s.parts[k-1]; len(*p) < cap(*p) {
			s.parts = s.parts[:k-1]
			return p
		}
	}
	if last && n <= respTailMax {
		b := make([]byte, 0, n)
		return &b
	}
	//lint:ignore poollease ownership passes to the demux caller, which parks the part with addPart (or releases it on a read error); takeResponse or addPart releases it exactly once
	return getRespPart()
}

// addPart parks a part on the stream; a part that comes back after
// the stream finished (abandoned while the demux was reading) is
// released on the spot. Called by the demux goroutine only.
func (s *muxStream) addPart(p *[]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		putRespPart(p)
		return
	}
	s.parts = append(s.parts, p)
}

// takeResponse hands over the buffered response once the stream has
// finished — one exact-size allocation for a multi-frame body — and
// releases every leased part. Safe to call on a failed stream: it
// just releases the parts.
func (s *muxStream) takeResponse() []byte {
	s.mu.Lock()
	resp, parts := s.resp, s.parts
	s.resp, s.parts = nil, nil
	s.mu.Unlock()
	if len(parts) == 0 {
		return resp
	}
	bufs := make([][]byte, len(parts))
	for i, p := range parts {
		bufs[i] = *p
	}
	out := bytes.Join(bufs, nil) // exact size, not pre-zeroed
	for _, p := range parts {
		putRespPart(p)
	}
	return out
}

// finish completes a stream exactly once.
func (s *muxStream) finish(err error) {
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.finished = true
	s.err = err
	s.mu.Unlock()
	s.send.close(errors.New("transport: mux stream finished"))
	close(s.done)
}

func (s *muxStream) isFinished() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finished
}

// muxProposal is the client's proposed settings (clamped by
// ClientOptions, and by the server in its SETTINGS answer).
func (c *Client) muxProposal() muxSettings {
	s := muxSettings{window: defaultMuxWindow, maxStreams: defaultMuxStreams}
	if c.muxWindow > 0 {
		s.window = c.muxWindow
	}
	if c.muxStreams > 0 {
		s.maxStreams = c.muxStreams
	}
	return s
}

// muxDial is one connection being opened; callers that need a
// connection while none is live wait for it instead of dialing too.
type muxDial struct {
	done chan struct{}
	err  error
}

// muxFor returns a live connection, round robin over up to
// muxMaxConns of them. Dead connections are reaped here; a new one is
// opened while the pool is below its cap and nobody else is opening
// one. A caller that finds nothing live waits for the dial in
// progress and shares its outcome, so a dead server costs one dial
// per wave of callers, not one per caller.
func (c *Client) muxFor(ctx context.Context) (*muxConn, error) {
	for {
		c.muxMu.Lock()
		if c.muxClosed {
			c.muxMu.Unlock()
			return nil, errClientClosed
		}
		live := c.muxConns[:0]
		for _, m := range c.muxConns {
			if !m.isDead() {
				live = append(live, m)
			}
		}
		clear(c.muxConns[len(live):])
		c.muxConns = live
		if len(live) > 0 && (len(live) >= c.muxMaxConns || c.muxDialing != nil) {
			m := live[c.muxNext%len(live)]
			c.muxNext++
			c.muxMu.Unlock()
			return m, nil
		}
		if d := c.muxDialing; d != nil {
			c.muxMu.Unlock()
			select {
			case <-d.done:
				// The dialer's own cancellation says nothing about the
				// server: a waiter whose context is alive dials itself.
				if d.err != nil && !(ctx.Err() == nil && isContextErr(d.err)) {
					return nil, d.err
				}
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		d := &muxDial{done: make(chan struct{})}
		c.muxDialing = d
		c.muxMu.Unlock()

		m, err := c.establishMux(ctx)
		c.muxMu.Lock()
		c.muxDialing = nil
		d.err = err
		close(d.done)
		switch {
		case err != nil:
			// A failed extra connection still leaves the live ones.
			var pick *muxConn
			if n := len(c.muxConns); n > 0 {
				pick = c.muxConns[c.muxNext%n]
				c.muxNext++
			}
			c.muxMu.Unlock()
			if pick != nil {
				return pick, nil
			}
			return nil, err
		case c.muxClosed:
			c.muxMu.Unlock()
			m.fatal(errClientClosed)
			return nil, errClientClosed
		}
		c.muxConns = append(c.muxConns, m)
		c.muxMu.Unlock()
		return m, nil
	}
}

// isContextErr reports a cancellation or deadline error.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// establishMux dials a connection and exchanges the SETTINGS preface:
// the client proposes, the server answers with its clamped choice,
// and from then on the connection carries streams.
func (c *Client) establishMux(ctx context.Context) (*muxConn, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		c.m.dialErrors.Inc()
		return nil, err
	}
	c.m.dials.Inc()
	w := &lockedWriter{w: conn}
	mr := &muxReader{r: bufio.NewReaderSize(conn, muxReadAhead)}
	settings, err := c.preface(ctx, conn, w, mr)
	if err != nil {
		conn.Close()
		return nil, err
	}
	m := &muxConn{
		c:        c,
		conn:     conn,
		mr:       mr,
		w:        w,
		ctl:      newCtlQueue(),
		settings: settings,
		slots:    make(chan struct{}, settings.maxStreams),
		streams:  make(map[uint32]*muxStream),
		nextID:   1,
		done:     make(chan struct{}),
	}
	c.m.muxDials.Inc()
	// Both goroutines live as long as the connection: fatal stops
	// them, and close joins them.
	//lint:ignore goroutinehygiene joined by muxConn.close on m.done and m.ctl.done
	go m.ctl.run(m.w, m.fatal)
	//lint:ignore goroutinehygiene joined by muxConn.close on m.done and m.ctl.done
	go m.demux()
	return m, nil
}

// preface runs the SETTINGS exchange on a fresh connection under a
// deadline of DialTimeout (or RequestTimeout when shorter); canceling
// ctx cuts it short.
func (c *Client) preface(ctx context.Context, conn net.Conn, w *lockedWriter, mr *muxReader) (muxSettings, error) {
	limit := c.dialTimeout
	if c.reqTimeout > 0 && c.reqTimeout < limit {
		limit = c.reqTimeout
	}
	conn.SetDeadline(time.Now().Add(limit))
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	proposal := c.muxProposal()
	err := writeSettings(w, proposal)
	var peer muxSettings
	if err == nil {
		peer, err = readSettings(mr)
	}
	canceled := !stop()
	if err == nil && canceled {
		err = ctx.Err()
	}
	if err != nil {
		return muxSettings{}, c.wrapExchangeErr(err, canceled, ctx)
	}
	conn.SetDeadline(time.Time{})
	return proposal.negotiate(peer), nil
}

func (m *muxConn) isDead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead
}

// fatal kills the connection: every in-flight stream fails with err,
// late frames are ignored, and the next exchange opens a fresh
// connection. Safe to call from any goroutine, once or many times.
func (m *muxConn) fatal(err error) {
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		return
	}
	m.dead = true
	m.err = err
	streams := make([]*muxStream, 0, len(m.streams))
	for _, s := range m.streams {
		streams = append(streams, s)
	}
	m.streams = make(map[uint32]*muxStream)
	m.mu.Unlock()
	m.ctl.close()
	m.conn.Close()
	m.c.m.muxConnFailures.Inc()
	if m.c.health != nil && !errors.Is(err, errClientClosed) {
		m.c.health.ReportFailure(m.c.addr)
	}
	for _, s := range streams {
		s.finish(fmt.Errorf("%w: %w", errMuxConnClosed, err))
	}
}

// register allocates a stream id and installs the stream.
func (m *muxConn) register() (*muxStream, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return nil, fmt.Errorf("%w: %w", errMuxConnClosed, m.err)
	}
	for {
		id := m.nextID
		m.nextID++
		if m.nextID == 0 { // id 0 is reserved; skip on wraparound
			m.nextID = 1
		}
		if _, taken := m.streams[id]; taken || id == 0 {
			continue
		}
		s := &muxStream{
			id:   id,
			send: newCreditGate(m.settings.window),
			done: make(chan struct{}),
		}
		m.streams[id] = s
		return s, nil
	}
}

// unregister removes a stream so late frames for it are discarded
// (and its flow-control credit is never granted again).
func (m *muxConn) unregister(id uint32) {
	m.mu.Lock()
	delete(m.streams, id)
	m.mu.Unlock()
}

func (m *muxConn) lookup(id uint32) (*muxStream, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.streams[id]
	return s, ok
}

// demux is the connection's read loop: it routes every incoming frame
// to its stream, grants flow-control credit for consumed chunks, and
// tears the connection down on the first protocol violation or read
// error. It deliberately has no context: the loop exits when the
// connection closes, which fatal() and Close() both arrange.
//
//lint:ignore ctxcancel conn-lifetime loop; fatal()/Close() unblock the read via conn.Close
func (m *muxConn) demux() {
	defer close(m.done)
	mr := m.mr
	for {
		f, rest, err := mr.readHead()
		if err != nil {
			m.fatal(err)
			return
		}
		m.c.m.muxFramesRecv.Inc()
		if f.kind == muxKindResp {
			if err := m.demuxResp(mr, f, rest); err != nil {
				m.fatal(err)
				return
			}
			continue
		}
		if err := mr.readBody(&f, rest); err != nil {
			m.fatal(err)
			return
		}
		switch f.kind {
		case muxKindWindow:
			if s, ok := m.lookup(f.id); ok {
				s.send.grant(f.credit)
			}
		case muxKindReset:
			if s, ok := m.lookup(f.id); ok {
				m.unregister(f.id)
				s.finish(fmt.Errorf("transport: stream reset by server: %s", f.chunk))
			}
		default: // REQ or a second SETTINGS from the server
			m.fatal(fmt.Errorf("transport: unexpected mux frame kind %d from server", f.kind))
			return
		}
	}
}

// demuxResp routes one RESP frame whose header has been read and whose
// rest chunk bytes are still on the wire. A streaming consumer sees
// the chunk in the reused frame buffer; a buffered response has it
// read straight into its final home (see muxStream.resp/parts).
func (m *muxConn) demuxResp(mr *muxReader, f muxFrame, rest int) error {
	s, ok := m.lookup(f.id)
	if !ok {
		// Late frame for a timed-out/completed stream: discard without
		// granting credit — the server quiesces on its own window, and
		// the earlier RESET told it to stop.
		m.c.m.muxLateFrames.Inc()
		return mr.readBody(&f, rest)
	}
	fin := f.flags&muxFlagFIN != 0
	s.mu.Lock()
	if !s.gotStatus {
		s.status = f.status
		s.gotStatus = true
	}
	onData := s.onData
	streaming := onData != nil && s.status == statusOK
	first := s.size == 0
	s.size += rest
	size := s.size
	s.mu.Unlock()
	switch {
	case streaming:
		if err := mr.readBody(&f, rest); err != nil {
			return err
		}
		if rest > 0 {
			onData(f.chunk)
		}
	case size > MaxFrame:
		return fmt.Errorf("transport: mux stream %d exceeds %d bytes", f.id, MaxFrame)
	case rest == 0:
	case fin && first:
		// The whole response in one frame: its exact size is known, so
		// it lands in the buffer handed to the caller.
		b := make([]byte, rest)
		if err := mr.read(b); err != nil {
			return err
		}
		s.mu.Lock()
		s.resp = b
		s.mu.Unlock()
	default:
		// Fill the stream's parts in turn; a chunk may straddle two.
		for left := rest; left > 0; {
			p := s.tailPart(left, fin)
			n := len(*p)
			k := min(left, cap(*p)-n)
			*p = (*p)[:n+k]
			if err := mr.read((*p)[n:]); err != nil {
				putRespPart(p)
				return err
			}
			s.addPart(p)
			left -= k
		}
	}
	if rest > 0 {
		// Return consumed credit via the async control queue so this
		// read loop never blocks on the write side (see ctlQueue for
		// the two-sided deadlock it prevents).
		m.ctl.grant(f.id, rest)
	}
	if fin {
		m.unregister(f.id)
		s.finish(nil)
	}
	return nil
}

// exchange runs one request/response over its own stream. chunks is
// the request body (header + payload pieces); contents must stay
// valid until exchange returns. Timeouts and cancellations abandon
// only this stream: a RESET tells the server to drop the work, credit
// stops flowing, and the connection keeps serving its other streams.
func (m *muxConn) exchange(ctx context.Context, chunks [][]byte) (byte, []byte, error) {
	select {
	case m.slots <- struct{}{}:
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	case <-m.done:
		return 0, nil, fmt.Errorf("%w: %w", errMuxConnClosed, m.connErr())
	}
	defer func() { <-m.slots }()

	s, err := m.register()
	if err != nil {
		return 0, nil, err
	}
	m.c.m.muxStreams.Inc()
	m.c.m.muxInflight.Add(1)
	defer m.c.m.muxInflight.Add(-1)
	start := time.Now()

	// The abandon watcher: cancellation and per-stream timeout both
	// finish the stream locally and RESET it remotely, without
	// touching the connection.
	var timeout <-chan time.Time
	if m.c.reqTimeout > 0 {
		t := time.NewTimer(m.c.reqTimeout)
		defer t.Stop()
		timeout = t.C
	}
	watchDone := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		select {
		case <-ctx.Done():
			m.abandon(s, ctx.Err())
		case <-timeout:
			m.c.m.muxStreamTimeouts.Inc()
			if m.c.health != nil {
				m.c.health.ReportFailure(m.c.addr)
			}
			m.abandon(s, fmt.Errorf("%w after %v: mux stream %d", ErrRequestTimeout, m.c.reqTimeout, s.id))
		case <-s.done:
		case <-watchDone:
		}
	}()
	defer func() {
		close(watchDone)
		watch.Wait()
	}()

	if err := m.writeRequest(s, chunks); err != nil {
		// The stream may already carry a more precise failure (timeout,
		// reset) that closed the send gate under the writer.
		<-s.done
		s.takeResponse()
		if s.err != nil {
			return 0, nil, s.err
		}
		return 0, nil, err
	}
	<-s.done
	resp := s.takeResponse()
	if s.err != nil {
		return 0, nil, s.err
	}
	if !s.gotStatus {
		m.fatal(fmt.Errorf("transport: mux stream %d finished without a status", s.id))
		return 0, nil, fmt.Errorf("transport: empty mux response")
	}
	if m.c.health != nil {
		m.c.health.ReportSuccess(m.c.addr)
	}
	var sent int64
	for _, ch := range chunks {
		sent += int64(len(ch))
	}
	m.c.m.bytesSent.Add(sent)
	m.c.m.bytesRecv.Add(int64(len(resp)))
	m.c.m.roundTrip.Observe(time.Since(start).Seconds())
	return s.status, resp, nil
}

// abandon fails one stream locally and RESETs it remotely.
func (m *muxConn) abandon(s *muxStream, err error) {
	if s.isFinished() {
		return
	}
	m.unregister(s.id)
	s.finish(err)
	m.c.m.muxResets.Inc()
	// Best effort: if the conn is unwritable the demux will notice.
	m.ctl.reset(s.id, "abandoned by client")
}

// connErr returns the connection's terminal error.
func (m *muxConn) connErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	return errors.New("transport: mux connection down")
}

// writeRequest streams the request body as credit-gated REQ chunks.
func (m *muxConn) writeRequest(s *muxStream, chunks [][]byte) error {
	// Total so the final chunk carries FIN even when it lands on a
	// piece boundary.
	total := 0
	for _, ch := range chunks {
		total += len(ch)
	}
	written := 0
	stalled := func() { m.c.m.muxFlowStalls.Inc() }
	for _, ch := range chunks {
		for len(ch) > 0 {
			n, err := s.send.take(len(ch), stalled)
			if err != nil {
				return err
			}
			fin := byte(0)
			if written+n == total {
				fin = muxFlagFIN
			}
			if err := writeMuxFrame(m.w, muxKindReq, s.id, []byte{fin}, ch[:n]); err != nil {
				m.fatal(err)
				return err
			}
			m.c.m.muxFramesSent.Inc()
			ch = ch[n:]
			written += n
		}
	}
	if total == 0 {
		if err := writeMuxFrame(m.w, muxKindReq, s.id, []byte{muxFlagFIN}, nil); err != nil {
			m.fatal(err)
			return err
		}
		m.c.m.muxFramesSent.Inc()
	}
	return nil
}

// close shuts the mux connection down (Client.Close).
func (m *muxConn) close() {
	m.fatal(errClientClosed)
	<-m.done
	<-m.ctl.done
}

// GetStream implements blockstore.Streamer with blockstore.FanOutGet:
// every index becomes its own GET stream, each under the idempotent
// retry policy (a connection that cannot be opened is one more
// retryable failure), and each block is delivered the moment its
// response completes — out of order, exactly as the decoder wants
// them — so a stalled block stalls only itself. deliver may be called
// from multiple goroutines. It always returns nil.
func (c *Client) GetStream(ctx context.Context, segment string, indices []int, deliver func(index int, data []byte, err error)) error {
	blockstore.FanOutGet(ctx, c, segment, indices, deliver)
	return nil
}

// PutStream implements blockstore.Streamer: it ships a run of blocks
// over one pipelined PUTSTREAM stream. The server stores and
// acknowledges each entry as its bytes arrive, and acked(i, err)
// fires in order, exactly once per entry, as those acks come back —
// so the caller learns of durable blocks while later entries are
// still in flight. acked runs on transport goroutines and must not
// block or call back into the Client. Entry data is not retained
// after PutStream returns.
//
// A non-nil return means acked was never called: the stream failed
// before any ack, and every entry may be retried elsewhere. Once the
// first ack lands, PutStream returns nil and any mid-stream failure
// is delivered through acked for the remaining entries instead.
//
// A run of one entry goes as a unary PUT (its error returned, not
// acked): a one-entry stream would only add a server goroutine and
// ack framing. So does each entry of a run holding an entry larger
// than the stream window, which PUTSTREAM cannot carry (its credit is
// returned only once an entry is stored).
func (c *Client) PutStream(ctx context.Context, segment string, puts []blockstore.BatchPut, acked func(i int, err error)) error {
	if len(segment) > 0xFFFF {
		return fmt.Errorf("transport: segment name too long (%d bytes)", len(segment))
	}
	for _, p := range puts {
		if p.Index < 0 {
			return fmt.Errorf("transport: negative block index")
		}
	}
	switch len(puts) {
	case 0:
		return nil
	case 1:
		if err := c.Put(ctx, segment, puts[0].Index, puts[0].Data); err != nil {
			return err
		}
		acked(0, nil)
		return nil
	}
	m, err := c.muxFor(ctx)
	if err != nil {
		return err
	}
	for _, p := range puts {
		if putEntryOverhead+len(p.Data) > m.settings.window {
			for i, p := range puts {
				err := ctx.Err()
				if err == nil {
					err = c.Put(ctx, segment, p.Index, p.Data)
				}
				acked(i, err)
			}
			return nil
		}
	}
	return m.putStream(ctx, segment, puts, acked)
}

// putStreamAcks parses the server's streamed ack entries and delivers
// them in order. feed runs on the demux goroutine; the final drain
// (after the stream closes) runs on the putStream goroutine — the
// mutex plus the done flag serialize the two so acked never runs
// twice for an entry or from two goroutines at once.
type putStreamAcks struct {
	m     *muxConn
	s     *muxStream
	puts  []blockstore.BatchPut
	acked func(i int, err error)

	progress atomic.Int64 // UnixNano of the last ack, for the stall watcher

	mu   sync.Mutex
	buf  []byte
	pos  int  // entries acked so far
	done bool // terminal drain started; drop late feeds
}

func (p *putStreamAcks) feed(chunk []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return
	}
	// Whole acks are parsed straight out of the chunk; only a partial
	// one is copied aside (the chunk aliases the frame buffer).
	data := chunk
	if len(p.buf) > 0 {
		p.buf = append(p.buf, chunk...)
		data = p.buf
	}
	for len(data) >= batchResultOverhead {
		idx := int(binary.BigEndian.Uint32(data[0:4]))
		status := data[4]
		n := int(binary.BigEndian.Uint32(data[5:9]))
		if idx < 0 || n < 0 || n > MaxFrame {
			p.fail(fmt.Errorf("transport: malformed put stream ack (index %d, %d bytes)", idx, n))
			return
		}
		if len(data) < batchResultOverhead+n {
			break // wait for the rest of the message
		}
		if p.pos >= len(p.puts) || idx != p.puts[p.pos].Index {
			p.fail(fmt.Errorf("transport: put stream ack for index %d, want %d", idx, p.puts[p.pos%len(p.puts)].Index))
			return
		}
		err := batchEntryError(status, data[batchResultOverhead:batchResultOverhead+n])
		data = data[batchResultOverhead+n:]
		i := p.pos
		p.pos++
		p.progress.Store(time.Now().UnixNano())
		p.acked(i, err)
	}
	p.buf = append(p.buf[:0], data...)
}

// fail abandons the stream on a protocol violation (called with p.mu
// held); the terminal error reaches un-acked entries via the drain.
func (p *putStreamAcks) fail(err error) {
	p.done = true
	p.m.abandon(p.s, err)
}

// putStream runs one PUTSTREAM exchange. Unlike exchange, the
// per-stream timeout is progress-aware: it re-arms while acks keep
// arriving, so a long stream only times out when it stalls.
func (m *muxConn) putStream(ctx context.Context, segment string, puts []blockstore.BatchPut, acked func(i int, err error)) error {
	select {
	case m.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-m.done:
		return fmt.Errorf("%w: %w", errMuxConnClosed, m.connErr())
	}
	defer func() { <-m.slots }()

	s, err := m.register()
	if err != nil {
		return err
	}
	m.c.m.muxStreams.Inc()
	m.c.m.muxInflight.Add(1)
	defer m.c.m.muxInflight.Add(-1)
	start := time.Now()

	p := &putStreamAcks{m: m, s: s, puts: puts, acked: acked}
	p.progress.Store(start.UnixNano())
	s.mu.Lock()
	s.onData = p.feed
	s.mu.Unlock()

	var timeout <-chan time.Time
	var timer *time.Timer
	if m.c.reqTimeout > 0 {
		timer = time.NewTimer(m.c.reqTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	watchDone := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		for {
			select {
			case <-ctx.Done():
				m.abandon(s, ctx.Err())
				return
			case <-timeout:
				if idle := time.Since(time.Unix(0, p.progress.Load())); idle < m.c.reqTimeout {
					timer.Reset(m.c.reqTimeout - idle)
					continue
				}
				m.c.m.muxStreamTimeouts.Inc()
				if m.c.health != nil {
					m.c.health.ReportFailure(m.c.addr)
				}
				m.abandon(s, fmt.Errorf("%w after %v: mux stream %d stalled", ErrRequestTimeout, m.c.reqTimeout, s.id))
				return
			case <-s.done:
				return
			case <-watchDone:
				return
			}
		}
	}()
	defer func() {
		close(watchDone)
		watch.Wait()
	}()

	// Entry headers go into pooled scratch; entry data is referenced in
	// place and written with vectored I/O.
	scratch := getScratch()
	defer putScratch(scratch)
	growScratch(scratch, requestHeaderLen(segment)+putEntryOverhead*len(puts))
	chunks := make([][]byte, 0, 1+2*len(puts))
	*scratch = appendRequestHeader(*scratch, opPutStream, segment, len(puts))
	chunks = append(chunks, *scratch)
	for _, e := range puts {
		off := len(*scratch)
		*scratch = appendPutEntryHeader(*scratch, e.Index, len(e.Data))
		chunks = append(chunks, (*scratch)[off:len(*scratch)])
		if len(e.Data) > 0 {
			chunks = append(chunks, e.Data)
		}
	}

	werr := m.writeRequest(s, chunks)
	<-s.done
	resp := s.takeResponse() // an error response's message, if any

	var terminal error
	switch {
	case s.err != nil:
		terminal = s.err
	case !s.gotStatus:
		terminal = errors.New("transport: empty mux response")
	case s.status != statusOK:
		terminal = statusToError(s.status, resp)
	case werr != nil:
		terminal = werr
	}
	p.mu.Lock()
	p.done = true
	pos := p.pos
	p.mu.Unlock()
	if terminal == nil && pos < len(puts) {
		terminal = fmt.Errorf("transport: put stream truncated after %d of %d acks", pos, len(puts))
	}
	if pos == 0 && terminal != nil {
		return terminal // nothing acked: the caller may retry every entry
	}
	for i := pos; i < len(puts); i++ {
		acked(i, terminal)
	}
	if m.c.health != nil && terminal == nil {
		m.c.health.ReportSuccess(m.c.addr)
	}
	var sent int64
	for _, ch := range chunks {
		sent += int64(len(ch))
	}
	m.c.m.bytesSent.Add(sent)
	m.c.m.roundTrip.Observe(time.Since(start).Seconds())
	return nil
}
