package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/obs"
)

// Hostile-wire tests for the connection preface: a connection whose
// first frame is not one well-formed SETTINGS, or that sends a second
// SETTINGS later, is closed with nothing served, and the server keeps
// serving everyone else.

// prefaceServer runs a server over a fresh MemStore with metrics.
func prefaceServer(t *testing.T) (addr string, mem *blockstore.MemStore, reg *obs.Registry) {
	t.Helper()
	mem = blockstore.NewMemStore()
	reg = obs.NewRegistry()
	srv := NewServer(mem, ServerOptions{Obs: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), mem, reg
}

// sendRaw opens a raw connection and writes wire to it, optionally
// half-closing the write side afterwards.
func sendRaw(t *testing.T, addr string, wire []byte, closeWrite bool) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	if closeWrite {
		conn.(*net.TCPConn).CloseWrite()
	}
	return conn
}

// expectClosedSilently asserts the server closes conn without writing
// a single byte to it.
func expectClosedSilently(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server kept the connection open")
	}
	if n != 0 {
		t.Fatalf("server answered %d bytes on a rejected connection", n)
	}
}

// expectHealthy asserts that nothing reached the store or the op
// counters, and that a well-behaved client still gets served.
func expectHealthy(t *testing.T, addr string, mem *blockstore.MemStore, reg *obs.Registry) {
	t.Helper()
	for name, n := range reg.Snapshot().Counters {
		if strings.HasSuffix(name, "_total") && n != 0 {
			t.Errorf("rejected connection was served: %s = %d", name, n)
		}
	}
	if n := mem.Bytes(); n != 0 {
		t.Errorf("rejected connection stored %d bytes", n)
	}
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatalf("server unhealthy after a rejected connection: %v", err)
	}
	c.Close()
}

// v1Request encodes a request the way the retired single-op dialect
// framed it: [4B length][op][2B segment length][segment][4B index]
// [payload], with no SETTINGS preface.
func v1Request(t *testing.T, op byte, seg string, idx int, payload []byte) []byte {
	t.Helper()
	body, err := encodeRequest(op, seg, idx, payload)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	writeFrame(&buf, body)
	return buf.Bytes()
}

// TestLegacyClientAgainstMuxServer: a client of the retired single-op
// dialect opens with a bare request instead of SETTINGS — its PUT even
// looks like a REQ frame to the framing (op 1 = kind 1) — or with the
// retired MUXUP upgrade (op 11 carrying the settings). Each is closed
// with nothing stored, and the server stays healthy.
func TestLegacyClientAgainstMuxServer(t *testing.T) {
	addr, mem, reg := prefaceServer(t)
	muxup := encodeMuxSettings(muxSettings{window: defaultMuxWindow, maxStreams: 8})
	for _, wire := range [][]byte{
		v1Request(t, opPut, "seg", 3, []byte("old client")),
		v1Request(t, opGet, "seg", 3, nil),
		v1Request(t, opPing, "-", 0, nil),
		v1Request(t, 11, "-", 0, muxup),
	} {
		expectClosedSilently(t, sendRaw(t, addr, wire, false))
	}
	expectHealthy(t, addr, mem, reg)
}

// TestPrefaceRejectsMalformedSettings: a truncated, short, long,
// zero-valued or wrong-stream SETTINGS frame closes the connection.
func TestPrefaceRejectsMalformedSettings(t *testing.T) {
	addr, mem, reg := prefaceServer(t)
	good := encodeMuxSettings(muxSettings{window: defaultMuxWindow, maxStreams: 8})
	frame := func(id uint32, body []byte) []byte {
		var buf bytes.Buffer
		if err := writeMuxFrame(&lockedWriter{w: &buf}, muxKindSettings, id, nil, body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	whole := frame(0, good)
	cases := map[string][]byte{
		"truncated-body":   whole[:len(whole)-3],
		"truncated-header": whole[:6],
		"short-body":       frame(0, good[:4]),
		"long-body":        frame(0, append(good[:8:8], 0)),
		"zero-window":      frame(0, encodeMuxSettings(muxSettings{window: 0, maxStreams: 8})),
		"zero-streams":     frame(0, encodeMuxSettings(muxSettings{window: 1024, maxStreams: 0})),
		"nonzero-stream":   frame(1, good),
		"window-frame":     append([]byte{0, 0, 0, 9, muxKindWindow, 0, 0, 0, 0}, 0, 0, 1, 0),
	}
	for name, wire := range cases {
		t.Run(name, func(t *testing.T) {
			// Half-close so a truncated preface ends in EOF instead of
			// waiting for bytes that never come.
			expectClosedSilently(t, sendRaw(t, addr, wire, true))
		})
	}
	expectHealthy(t, addr, mem, reg)
}

// TestSecondSettingsKillsConnection: SETTINGS is legal exactly once; a
// second one mid-connection is a connection-fatal violation, and a
// request queued behind it is never served.
func TestSecondSettingsKillsConnection(t *testing.T) {
	addr, mem, reg := prefaceServer(t)
	peer := dialRawMux(t, addr)
	// The second SETTINGS and a PUT behind it, in one write.
	var wire bytes.Buffer
	w := &lockedWriter{w: &wire}
	writeSettings(w, muxSettings{window: 1024, maxStreams: 8})
	put, _ := encodeRequest(opPut, "seg", 0, []byte("late"))
	writeMuxFrame(w, muxKindReq, 1, []byte{muxFlagFIN}, put)
	peer.conn.Write(wire.Bytes())
	if f, err := (&muxReader{r: peer.conn}).next(); err == nil {
		t.Fatalf("connection survived a second SETTINGS (got kind %d)", f.kind)
	}
	expectHealthy(t, addr, mem, reg)
}

// TestMixedVersionClientsShareMuxServer: clients of the retired
// dialect and a current client hit one server concurrently. Every old
// connection is turned away unserved while the current client
// round-trips throughout.
func TestMixedVersionClientsShareMuxServer(t *testing.T) {
	addr, mem, _ := prefaceServer(t)
	client, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	old := v1Request(t, opPut, "old", 0, []byte("old client"))
	var wg sync.WaitGroup
	answered := make([]int64, 4)
	for i := range answered {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if conn, err := net.Dial("tcp", addr); err == nil {
				defer conn.Close()
				conn.Write(old)
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				answered[i], _ = io.Copy(io.Discard, conn)
			}
		}(i)
	}
	for i := 0; i < 16; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 1000+i)
		if err := client.Put(ctx, "new", i, data); err != nil {
			t.Fatal(err)
		}
		if got, err := client.Get(ctx, "new", i); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get %d = %v", i, err)
		}
	}
	wg.Wait()
	for i, n := range answered {
		if n != 0 {
			t.Errorf("old client %d was answered %d bytes", i, n)
		}
	}
	if idx, _ := mem.List(ctx, "old"); len(idx) != 0 {
		t.Errorf("an old client's PUT was served: %v stored", idx)
	}
}
