package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/blockstore"
	"repro/internal/obs"
)

// buildPutEntries encodes entries exactly as the client's PUTSTREAM
// writer does: [4B index][4B length][data] per entry.
func buildPutEntries(entries [][]byte) []byte {
	var wire []byte
	for i, e := range entries {
		wire = appendPutEntryHeader(wire, i, len(e))
		wire = append(wire, e...)
	}
	return wire
}

// TestQuickPutStreamEntryRoundTrip feeds randomly-chunked entry bytes
// through muxPutStream and checks the consumer sees every entry, in
// order, with the exact credit accounting the flow-control grants
// depend on.
func TestQuickPutStreamEntryRoundTrip(t *testing.T) {
	f := func(raw [][]byte, seed int64) bool {
		if len(raw) > 8 {
			raw = raw[:8]
		}
		entries := make([][]byte, len(raw))
		for i, e := range raw {
			if len(e) > 1024 {
				e = e[:1024]
			}
			entries[i] = e
		}
		wire := buildPutEntries(entries)
		ps := newMuxPutStream("seg", len(entries), defaultMuxWindow)
		rng := rand.New(rand.NewSource(seed))
		go func() {
			rest := wire
			for len(rest) > 0 {
				n := 1 + rng.Intn(len(rest))
				if err := ps.feed(rest[:n], n == len(rest)); err != nil {
					return
				}
				rest = rest[n:]
			}
			if len(wire) == 0 {
				ps.feed(nil, true)
			}
		}()
		defer ps.release()
		totalConsumed := 0
		for i := range entries {
			idx, data, consumed, err := ps.next()
			if err != nil || idx != i || !bytes.Equal(data, entries[i]) {
				return false
			}
			if consumed != putEntryOverhead+len(entries[i]) {
				return false
			}
			totalConsumed += consumed
		}
		if _, _, _, err := ps.next(); err != io.EOF {
			return false
		}
		return totalConsumed == len(wire)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPutStreamTruncatedEntryFailsClean: FIN landing mid-entry (in
// the header and in the data) must surface an error, not EOF and not
// a hang.
func TestPutStreamTruncatedEntryFailsClean(t *testing.T) {
	wire := buildPutEntries([][]byte{bytes.Repeat([]byte{7}, 64)})
	for _, cut := range []int{3, putEntryOverhead + 10} {
		ps := newMuxPutStream("seg", 1, defaultMuxWindow)
		if err := ps.feed(wire[:cut], true); err != nil {
			t.Fatalf("cut=%d: feed: %v", cut, err)
		}
		_, _, _, err := ps.next()
		ps.release()
		if err == nil || err == io.EOF {
			t.Fatalf("cut=%d: truncated stream yielded err=%v", cut, err)
		}
		if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("cut=%d: err %q does not say truncated", cut, err)
		}
	}
}

// TestPutStreamOversizedEntryRejected: an entry header claiming more
// than MaxFrame bytes — or more than the stream's credit window, which
// could never arrive whole — is a protocol violation, caught before
// any buffering happens.
func TestPutStreamOversizedEntryRejected(t *testing.T) {
	const window = 64 << 10
	for _, n := range []int{MaxFrame + 1, window - putEntryOverhead + 1} {
		var hdr [putEntryOverhead]byte
		binary.BigEndian.PutUint32(hdr[0:4], 0)
		binary.BigEndian.PutUint32(hdr[4:8], uint32(n))
		ps := newMuxPutStream("seg", 1, window)
		if err := ps.feed(hdr[:], false); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := ps.next(); err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Fatalf("entry of %d bytes yielded err=%v", n, err)
		}
		ps.release()
	}
}

// TestPutStreamFeedOverflow: a peer that streams past its credit gets
// stopped at the window instead of buffering without bound.
func TestPutStreamFeedOverflow(t *testing.T) {
	const window = 64 << 10
	ps := newMuxPutStream("seg", 2, window)
	defer ps.release()
	full := buildPutEntries([][]byte{bytes.Repeat([]byte{1}, window-putEntryOverhead)})
	if err := ps.feed(full, false); err != nil {
		t.Fatalf("feed of one window failed: %v", err)
	}
	if err := ps.feed([]byte{1}, false); err == nil {
		t.Fatal("feed past the window accepted")
	}
	if _, _, _, err := ps.next(); err == nil {
		t.Fatal("consumer not told about the overflow")
	}
}

// TestPutStreamFailWakesBlockedConsumer: a reset while the consumer
// waits for bytes must wake it with the terminal error — the
// mid-chunk RESET path.
func TestPutStreamFailWakesBlockedConsumer(t *testing.T) {
	ps := newMuxPutStream("seg", 2, defaultMuxWindow)
	defer ps.release()
	// Half an entry: the consumer blocks waiting for the rest.
	wire := buildPutEntries([][]byte{bytes.Repeat([]byte{3}, 32)})
	if err := ps.feed(wire[:putEntryOverhead+5], false); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := ps.next()
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	want := errors.New("stream reset by peer")
	ps.fail(want)
	select {
	case err := <-errc:
		if !errors.Is(err, want) {
			t.Fatalf("consumer woke with %v, want %v", err, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("consumer still blocked after fail")
	}
}

// gatePutStore parks every Put until the gate closes, keeping a
// PUTSTREAM stream alive at a deterministic point.
type gatePutStore struct {
	blockstore.Store
	gate chan struct{}
}

func (s *gatePutStore) Put(ctx context.Context, segment string, index int, data []byte) error {
	<-s.gate
	return s.Store.Put(ctx, segment, index, data)
}

// startRawPutStreamServer launches a mux server over the given store
// and returns a raw peer speaking frames at it.
func startRawPutStreamServer(t *testing.T, store blockstore.Store) *rawMuxPeer {
	t.Helper()
	srv := NewServer(store, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return dialRawMux(t, ln.Addr().String())
}

// sendPutStreamReq writes one REQ frame carrying the PUTSTREAM header
// (declared entries) plus whatever entry bytes follow, FIN-controlled.
func (p *rawMuxPeer) sendPutStreamReq(id uint32, segment string, declared int, entryBytes []byte, fin bool) {
	p.t.Helper()
	body, err := encodeRequest(opPutStream, segment, declared, nil)
	if err != nil {
		p.t.Fatal(err)
	}
	body = append(body, entryBytes...)
	flags := byte(0)
	if fin {
		flags = muxFlagFIN
	}
	w := &lockedWriter{w: p.conn}
	if err := writeMuxFrame(w, muxKindReq, id, []byte{flags}, body); err != nil {
		p.t.Fatal(err)
	}
}

// awaitKind reads frames for the stream until one of the wanted kind
// arrives, skipping flow-control WINDOW grants; the read deadline
// bounds the wait.
func (p *rawMuxPeer) awaitKind(id uint32, kind byte) muxFrame {
	p.t.Helper()
	for {
		f := p.readFrameFor(id)
		if f.kind == kind {
			return f
		}
		if f.kind != muxKindWindow {
			p.t.Fatalf("stream %d: got kind %d, want %d", id, f.kind, kind)
		}
	}
}

// TestPutStreamDuplicateStreamIDResets: reusing a PUTSTREAM stream's
// id after its request half finished is a per-stream violation — that
// stream RESETs, the connection keeps serving.
func TestPutStreamDuplicateStreamIDResets(t *testing.T) {
	mem := blockstore.NewMemStore()
	gate := make(chan struct{})
	defer close(gate)
	if err := mem.Put(context.Background(), "fast", 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	peer := startRawPutStreamServer(t, &gatePutStore{Store: mem, gate: gate})

	// Stream 5: a complete one-entry PUTSTREAM whose store Put parks,
	// keeping the id occupied with its request half done.
	entry := buildPutEntries([][]byte{[]byte("blockdata")})
	peer.sendPutStreamReq(5, "slow", 1, entry, true)
	peer.sendReq(5, opPing, "-", 0, nil)
	f := peer.awaitKind(5, muxKindReset)
	if !strings.Contains(string(f.chunk), "duplicate") {
		t.Fatalf("reset reason %q does not mention duplicate id", f.chunk)
	}

	// The connection is still healthy.
	peer.sendReq(8, opGet, "fast", 0, nil)
	if f := peer.awaitKind(8, muxKindResp); f.status != statusOK {
		t.Fatalf("stream 8 status = %d after duplicate reset", f.status)
	}
}

// TestPutStreamTruncatedWireResets: FIN mid-entry on the wire RESETs
// the stream with the truncation reason.
func TestPutStreamTruncatedWireResets(t *testing.T) {
	peer := startRawPutStreamServer(t, blockstore.NewMemStore())
	entry := buildPutEntries([][]byte{bytes.Repeat([]byte{9}, 128)})
	peer.sendPutStreamReq(3, "seg", 1, entry[:putEntryOverhead+30], true)
	f := peer.awaitKind(3, muxKindReset)
	if !strings.Contains(string(f.chunk), "truncated") {
		t.Fatalf("reset reason %q does not mention truncation", f.chunk)
	}
}

// TestPutStreamExcessEntriesReset: more entries than the header
// declared is a protocol violation.
func TestPutStreamExcessEntriesReset(t *testing.T) {
	peer := startRawPutStreamServer(t, blockstore.NewMemStore())
	two := buildPutEntries([][]byte{[]byte("one"), []byte("two")})
	peer.sendPutStreamReq(4, "seg", 1, two, true)
	// The declared entry is acked (RESP) before the excess one trips
	// the check, so skip acks while waiting for the RESET.
	for {
		f := peer.readFrameFor(4)
		if f.kind == muxKindWindow || f.kind == muxKindResp {
			continue
		}
		if f.kind != muxKindReset {
			t.Fatalf("stream 4: got kind %d, want RESET", f.kind)
		}
		if !strings.Contains(string(f.chunk), "exceed") {
			t.Fatalf("reset reason %q does not mention the declared count", f.chunk)
		}
		break
	}
}

// TestPutStreamMidChunkReset: the client abandons a PUTSTREAM halfway
// through an entry. The entries acked before the reset are durable,
// nothing after it lands, and the connection survives.
func TestPutStreamMidChunkReset(t *testing.T) {
	mem := blockstore.NewMemStore()
	if err := mem.Put(context.Background(), "fast", 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	peer := startRawPutStreamServer(t, mem)

	wire := buildPutEntries([][]byte{[]byte("first-entry"), bytes.Repeat([]byte{5}, 64)})
	firstLen := putEntryOverhead + len("first-entry")
	// Entry 0 complete, entry 1 cut mid-data, no FIN.
	peer.sendPutStreamReq(6, "seg", 2, wire[:firstLen+putEntryOverhead+10], false)
	// Entry 0's ack arrives while the stream is still open.
	ack := peer.awaitKind(6, muxKindResp)
	if len(ack.chunk) < batchResultOverhead || ack.chunk[4] != statusOK {
		t.Fatalf("entry 0 ack malformed or failed: %v", ack.chunk)
	}
	// Abandon mid-entry.
	w := &lockedWriter{w: peer.conn}
	if err := writeMuxFrame(w, muxKindReset, 6, nil, []byte("client gave up")); err != nil {
		t.Fatal(err)
	}

	// The connection still serves new streams, and only entry 0 landed.
	peer.sendReq(9, opGet, "fast", 0, nil)
	if f := peer.awaitKind(9, muxKindResp); f.status != statusOK {
		t.Fatalf("stream 9 status = %d after mid-chunk reset", f.status)
	}
	idx, err := mem.List(context.Background(), "seg")
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 || idx[0] != 0 {
		t.Fatalf("stored indices after reset = %v, want [0]", idx)
	}
}

// TestPutStreamNegativeCreditKillsConnection: a WINDOW frame with the
// sign bit set fails frame decoding, which is connection-fatal.
func TestPutStreamNegativeCreditKillsConnection(t *testing.T) {
	peer := startRawPutStreamServer(t, blockstore.NewMemStore())
	if err := writeFrame(peer.conn, []byte{muxKindWindow, 0, 0, 0, 6, 0x80, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	peer.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrame(peer.conn); err == nil {
		t.Fatal("connection survived a negative credit grant")
	}
}

// TestPutStreamUnaryRules: a run of one entry, and a run holding an
// entry larger than the stream window (which PUTSTREAM cannot carry),
// go out as unary PUTs — acked like a stream, counted as PUT ops.
func TestPutStreamUnaryRules(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(blockstore.NewMemStore(), ServerOptions{Obs: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	const window = 16 << 10
	client, err := Dial(ln.Addr().String(), ClientOptions{MuxWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for name, sizes := range map[string][]int{"one-entry": {100}, "entry-over-window": {100, window}} {
		puts := make([]blockstore.BatchPut, len(sizes))
		for i, n := range sizes {
			puts[i] = blockstore.BatchPut{Index: i, Data: bytes.Repeat([]byte{byte(i + 1)}, n)}
		}
		before := reg.Snapshot().Counters
		errs := client.PutBatch(context.Background(), name, puts)
		after := reg.Snapshot().Counters
		for i, err := range errs {
			if err != nil {
				t.Errorf("%s: entry %d: %v", name, i, err)
			}
		}
		puts0, streams := after["transport_server_put_total"]-before["transport_server_put_total"],
			after["transport_server_put_stream_total"]-before["transport_server_put_stream_total"]
		if puts0 != int64(len(sizes)) || streams != 0 {
			t.Errorf("%s: %d PUT and %d PUTSTREAM ops, want %d and 0", name, puts0, streams, len(sizes))
		}
	}
}
