package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// The multiplexed framing (DESIGN.md §10). Every exchange is its own
// stream: request IDs, out-of-order responses, chunked bodies so a
// 16 MB GET never head-of-line-blocks a PING, and per-stream windowed
// flow control so one slow consumer stalls only its own stream.
//
// Frame layout (all integers big-endian):
//
//	[4B frame length][1B kind][4B stream id][body...]
//
// kinds:
//
//	REQ      body = [1B flags][chunk]             client→server
//	RESP     body = [1B flags][1B status][chunk]  server→client
//	WINDOW   body = [4B credit bytes]             either direction
//	RESET    body = [error text]                  either direction
//	SETTINGS body = [4B window][4B max streams]   once each way, first
//
// The concatenated REQ chunks of a stream form exactly one request
// body (op, segment, index, payload); the concatenated RESP chunks
// form the response payload, with the status carried on every RESP
// frame (the first one wins). flags bit 0 (FIN) marks a stream's last
// chunk in that direction. Chunk payload bytes are debited from the
// sender's per-stream credit window; the receiver returns credit with
// WINDOW frames as it consumes chunks, and stops granting the moment
// it abandons a stream — a stalled or timed-out stream therefore
// quiesces without poisoning its neighbors. RESET aborts one stream
// in both directions (the receiver cancels the stream's server-side
// context); only a malformed frame kills the connection.
type muxFrame struct {
	kind   byte
	id     uint32
	flags  byte
	status byte
	credit int
	chunk  []byte // aliases the decoded frame body
}

// Frame kinds.
const (
	muxKindReq      = byte(1)
	muxKindResp     = byte(2)
	muxKindWindow   = byte(3)
	muxKindReset    = byte(4)
	muxKindSettings = byte(5)
)

// muxFlagFIN marks the last chunk of a stream direction.
const muxFlagFIN = byte(1)

// Mux sizing defaults. The window is per stream and per direction;
// the chunk size bounds how long one stream may monopolize the write
// side of a connection (a 16 MB GET response becomes ~128 frames any
// other stream's frames can interleave between).
const (
	defaultMuxWindow     = 1 << 20
	defaultMuxStreams    = 64
	muxChunkSize         = 128 << 10
	muxHeaderLen         = 1 + 4 // kind + stream id
	muxReqChunkOverhead  = 1     // flags
	muxRespChunkOverhead = 2     // flags + status
)

// writeMuxFrame writes one frame under the writer's lock as a
// single vectored write: length prefix and header from the writer's
// own scratch, the chunk in place. head is the kind-specific prefix
// placed between the stream id and the chunk (flags for REQ,
// flags+status for RESP, nothing for the control kinds).
func writeMuxFrame(w *lockedWriter, kind byte, id uint32, head []byte, chunk []byte) error {
	n := muxHeaderLen + len(head) + len(chunk)
	if n > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	hdr := w.hdr[:]
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	hdr[4] = kind
	binary.BigEndian.PutUint32(hdr[5:9], id)
	hl := 4 + muxHeaderLen + copy(hdr[4+muxHeaderLen:], head)
	w.vec[0], w.vec[1] = hdr[:hl], chunk
	bufs := net.Buffers(w.vec[:])
	if len(chunk) == 0 {
		bufs = bufs[:1]
	}
	_, err := bufs.WriteTo(w.w)
	w.vec[1] = nil // do not pin the caller's chunk
	return err
}

// encodeMuxWindow packs a WINDOW body.
func encodeMuxWindow(credit int) [4]byte {
	return [4]byte{byte(credit >> 24), byte(credit >> 16), byte(credit >> 8), byte(credit)}
}

// muxHeadLen is the fixed header length of a frame kind: kind, stream
// id, and the kind-specific prefix (flags for REQ, flags+status for
// RESP) that precedes the chunk.
func muxHeadLen(kind byte) (int, error) {
	switch kind {
	case muxKindReq:
		return muxHeaderLen + muxReqChunkOverhead, nil
	case muxKindResp:
		return muxHeaderLen + muxRespChunkOverhead, nil
	case muxKindWindow, muxKindReset, muxKindSettings:
		return muxHeaderLen, nil
	}
	return 0, fmt.Errorf("transport: unknown mux frame kind %d", kind)
}

// parseMuxHead decodes a fixed header of exactly muxHeadLen bytes.
func parseMuxHead(head []byte) muxFrame {
	f := muxFrame{
		kind: head[0],
		id:   uint32(head[1])<<24 | uint32(head[2])<<16 | uint32(head[3])<<8 | uint32(head[4]),
	}
	switch f.kind {
	case muxKindReq:
		f.flags = head[muxHeaderLen]
	case muxKindResp:
		f.flags = head[muxHeaderLen]
		f.status = head[muxHeaderLen+1]
	}
	return f
}

// setBody completes a frame from the bytes after its fixed header: the
// chunk of a REQ, RESP, RESET or SETTINGS (aliased, not copied), or a
// WINDOW's credit.
func (f *muxFrame) setBody(rest []byte) error {
	if f.kind != muxKindWindow {
		f.chunk = rest
		return nil
	}
	if len(rest) != 4 {
		return fmt.Errorf("transport: malformed mux WINDOW frame (%d bytes)", len(rest))
	}
	credit := uint32(rest[0])<<24 | uint32(rest[1])<<16 | uint32(rest[2])<<8 | uint32(rest[3])
	// The wire field is a signed 31-bit credit; a set sign bit is
	// malformed regardless of the host int width.
	if credit > 0x7FFFFFFF {
		return fmt.Errorf("transport: negative mux window credit")
	}
	f.credit = int(credit)
	return nil
}

// muxReader reads frames off one connection into a single body
// buffer reused for every frame (DESIGN.md §10): a frame's chunk
// aliases that buffer and is valid only until the next read, so every
// consumer copies what it keeps. readHead/readBody split a frame so a
// caller can instead land a chunk straight in its destination (read)
// — the client's response assembly.
type muxReader struct {
	r    io.Reader
	head [4 + muxHeaderLen + muxRespChunkOverhead]byte
	buf  []byte
}

// muxReadBufMax caps the body buffer a connection keeps between
// frames: a full data chunk plus its header. A larger frame (legal up
// to MaxFrame, never sent by this package) is read into a one-off
// buffer so it does not pin that much memory for the connection's
// lifetime.
const muxReadBufMax = muxChunkSize + muxHeaderLen + muxRespChunkOverhead

// muxReadAhead sizes the read-ahead buffer under a muxReader: enough
// to batch control frames and headers into one read, small enough that
// little of a data chunk is copied through it before the rest lands
// directly in its destination.
const muxReadAhead = 4 << 10

// next reads one whole frame; its chunk is valid until the next read.
func (mr *muxReader) next() (muxFrame, error) {
	f, rest, err := mr.readHead()
	if err != nil {
		return muxFrame{}, err
	}
	return f, mr.readBody(&f, rest)
}

// readHead reads a frame's length prefix and fixed header, leaving
// rest body bytes unread; the caller consumes exactly those with
// readBody or readInto before the next readHead.
func (mr *muxReader) readHead() (f muxFrame, rest int, err error) {
	// Every valid frame is at least muxHeaderLen long, so the length
	// prefix and kind+id come in one read (a shorter frame is fatal to
	// the connection, so over-reading into the next one is moot).
	if _, err := io.ReadFull(mr.r, mr.head[:4+muxHeaderLen]); err != nil {
		return muxFrame{}, 0, err
	}
	n := int(binary.BigEndian.Uint32(mr.head[:4]))
	if n > MaxFrame {
		return muxFrame{}, 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	if n < muxHeaderLen {
		return muxFrame{}, 0, fmt.Errorf("transport: short mux frame (%d bytes)", n)
	}
	kind := mr.head[4]
	hl, err := muxHeadLen(kind)
	if err != nil {
		return muxFrame{}, 0, err
	}
	if n < hl {
		return muxFrame{}, 0, fmt.Errorf("transport: short mux frame kind %d (%d bytes)", kind, n)
	}
	if _, err := io.ReadFull(mr.r, mr.head[4+muxHeaderLen:4+hl]); err != nil {
		return muxFrame{}, 0, err
	}
	return parseMuxHead(mr.head[4 : 4+hl]), n - hl, nil
}

// readBody reads the rest of the current frame into the reused buffer
// and completes f from it.
func (mr *muxReader) readBody(f *muxFrame, rest int) error {
	var b []byte
	switch {
	case rest <= cap(mr.buf):
		b = mr.buf[:rest]
	case rest <= muxReadBufMax:
		mr.buf = make([]byte, muxReadBufMax)
		b = mr.buf[:rest]
	default:
		b = make([]byte, rest)
	}
	if _, err := io.ReadFull(mr.r, b); err != nil {
		return err
	}
	return f.setBody(b)
}

// read reads the next len(dst) body bytes of the current frame
// straight into dst.
func (mr *muxReader) read(dst []byte) error {
	_, err := io.ReadFull(mr.r, dst)
	return err
}

// lockedWriter serializes frame writes onto one shared connection.
// The lock is held per frame, never across flow-control waits — a
// stream blocked on credit must not wedge the peer's WINDOW grants.
type lockedWriter struct {
	mu  sync.Mutex
	w   interface{ Write([]byte) (int, error) }
	hdr [4 + muxHeaderLen + muxRespChunkOverhead]byte // guarded by mu
	vec [2][]byte                                     // guarded by mu
}

// creditGate is one direction of a stream's flow-control window: the
// sender takes credit before each chunk, the demux goroutine grants
// it back as the peer acknowledges consumption, and closing the gate
// releases any waiting sender with an error.
type creditGate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	credit int
	err    error
}

func newCreditGate(initial int) *creditGate {
	g := &creditGate{credit: initial}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// take blocks until at least min(want, chunk window) credit is
// available or the gate closes, then debits and returns the number of
// bytes the caller may send (never more than want). stalled, when
// non-nil, is invoked once if the caller had to wait — the mux stall
// metric.
func (g *creditGate) take(want int, stalled func()) (int, error) {
	if want > muxChunkSize {
		want = muxChunkSize
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	waited := false
	for g.err == nil && g.credit <= 0 {
		if !waited && stalled != nil {
			stalled()
		}
		waited = true
		g.cond.Wait()
	}
	if g.err != nil {
		return 0, g.err
	}
	n := want
	if n > g.credit {
		n = g.credit
	}
	g.credit -= n
	return n, nil
}

// grant returns credit to the sender.
func (g *creditGate) grant(n int) {
	g.mu.Lock()
	g.credit += n
	g.mu.Unlock()
	g.cond.Broadcast()
}

// close releases any waiting sender with err.
func (g *creditGate) close(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

// ctlQueue decouples control frames (WINDOW grants, RESETs) from the
// connection's read loop. A read loop that writes inline can deadlock
// when both TCP directions fill: each side's reader blocks writing a
// grant the other side cannot drain because its own reader is blocked
// the same way. Queuing the control frames and writing them from a
// dedicated goroutine keeps both read loops always reading, so the
// peer's writes always eventually drain. Grants coalesce per stream,
// bounding queue memory by the open-stream count.
type ctlQueue struct {
	mu     sync.Mutex
	grants map[uint32]int
	resets []ctlReset
	kick   chan struct{}
	done   chan struct{} // closed when run exits; join point for owners
	closed bool
}

type ctlReset struct {
	id  uint32
	msg string
}

func newCtlQueue() *ctlQueue {
	return &ctlQueue{
		grants: make(map[uint32]int),
		kick:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// grant enqueues a WINDOW grant (coalesced per stream).
func (q *ctlQueue) grant(id uint32, n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.grants[id] += n
	select {
	case q.kick <- struct{}{}:
	default:
	}
}

// reset enqueues a RESET for one stream.
func (q *ctlQueue) reset(id uint32, msg string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.resets = append(q.resets, ctlReset{id: id, msg: msg})
	select {
	case q.kick <- struct{}{}:
	default:
	}
}

// close stops the queue; further grants/resets are dropped (the
// connection is dying, so they are moot).
func (q *ctlQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	close(q.kick)
}

// swap takes the pending work.
func (q *ctlQueue) swap() (map[uint32]int, []ctlReset) {
	q.mu.Lock()
	defer q.mu.Unlock()
	grants, resets := q.grants, q.resets
	q.grants = make(map[uint32]int)
	q.resets = nil
	return grants, resets
}

// run writes queued control frames until the queue closes; onErr is
// invoked once on the first write failure (the conn is broken — the
// owner tears it down, which also closes the queue). done is closed on
// exit so owners can join after closing the queue and the conn.
func (q *ctlQueue) run(w *lockedWriter, onErr func(error)) {
	defer close(q.done)
	for range q.kick {
		grants, resets := q.swap()
		for id, n := range grants {
			win := encodeMuxWindow(n)
			if err := writeMuxFrame(w, muxKindWindow, id, nil, win[:]); err != nil {
				onErr(err)
				return
			}
		}
		for _, r := range resets {
			if err := writeMuxFrame(w, muxKindReset, r.id, nil, []byte(r.msg)); err != nil {
				onErr(err)
				return
			}
		}
	}
}

// muxSettings are the negotiated per-connection parameters: the
// initial per-stream window (bytes, each direction) and the maximum
// number of concurrently open streams.
type muxSettings struct {
	window     int
	maxStreams int
}

// muxSettingsLen is the SETTINGS body size.
const muxSettingsLen = 8

// encodeMuxSettings packs a SETTINGS body.
func encodeMuxSettings(s muxSettings) []byte {
	return []byte{
		byte(s.window >> 24), byte(s.window >> 16), byte(s.window >> 8), byte(s.window),
		byte(s.maxStreams >> 24), byte(s.maxStreams >> 16), byte(s.maxStreams >> 8), byte(s.maxStreams),
	}
}

// decodeMuxSettings unpacks a SETTINGS body.
func decodeMuxSettings(payload []byte) (muxSettings, error) {
	if len(payload) != muxSettingsLen {
		return muxSettings{}, fmt.Errorf("transport: malformed mux settings (%d bytes)", len(payload))
	}
	s := muxSettings{
		window:     int(uint32(payload[0])<<24 | uint32(payload[1])<<16 | uint32(payload[2])<<8 | uint32(payload[3])),
		maxStreams: int(uint32(payload[4])<<24 | uint32(payload[5])<<16 | uint32(payload[6])<<8 | uint32(payload[7])),
	}
	if s.window <= 0 || s.maxStreams <= 0 {
		return muxSettings{}, fmt.Errorf("transport: non-positive mux settings")
	}
	return s, nil
}

// negotiate clamps the peer's proposed settings to local bounds: both
// sides end up with the min of the two proposals, so neither can be
// pushed past what it offered.
func (s muxSettings) negotiate(peer muxSettings) muxSettings {
	out := s
	if peer.window < out.window {
		out.window = peer.window
	}
	if peer.maxStreams < out.maxStreams {
		out.maxStreams = peer.maxStreams
	}
	return out
}

// writeSettings sends this side's SETTINGS frame.
func writeSettings(w *lockedWriter, s muxSettings) error {
	return writeMuxFrame(w, muxKindSettings, 0, nil, encodeMuxSettings(s))
}

// readSettings reads the connection preface: the peer's SETTINGS
// frame, which must be the first frame on the connection. Anything
// else fails before any of its body is read.
func readSettings(mr *muxReader) (muxSettings, error) {
	f, rest, err := mr.readHead()
	if err != nil {
		return muxSettings{}, err
	}
	if f.kind != muxKindSettings || f.id != 0 || rest != muxSettingsLen {
		return muxSettings{}, fmt.Errorf("transport: connection preface is not a SETTINGS frame (kind %d, stream %d, %d bytes)", f.kind, f.id, rest)
	}
	if err := mr.readBody(&f, rest); err != nil {
		return muxSettings{}, err
	}
	return decodeMuxSettings(f.chunk)
}
