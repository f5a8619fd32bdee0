package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/quick"
)

// Fuzz and property tests for the multi-entry codecs (DESIGN.md
// §10): PUTSTREAM request entries and the per-entry results DELETE
// and PUTSTREAM acks carry. The decoders face bytes from the network:
// they must reject oversized and truncated entries, never panic, and
// never refer to bytes outside what they were handed.

// validPutEntries builds a well-formed PUTSTREAM entry body.
func validPutEntries(entries ...[]byte) (int, []byte) {
	var buf []byte
	for i, data := range entries {
		buf = appendPutEntryHeader(buf, i, len(data))
		buf = append(buf, data...)
	}
	return len(entries), buf
}

// decodeStreamEntries runs a whole PUTSTREAM entry body through the
// server's incremental decoder in one final chunk and returns the
// entries it yields, up to the first error (io.EOF on a clean end).
func decodeStreamEntries(payload []byte) (idx []int, datas [][]byte, consumed int, err error) {
	ps := newMuxPutStream("seg", 0, defaultMuxWindow)
	defer ps.release()
	if err := ps.feed(payload, true); err != nil {
		return nil, nil, 0, err
	}
	for {
		i, data, n, err := ps.next()
		if err != nil {
			return idx, datas, consumed, err
		}
		idx = append(idx, i)
		datas = append(datas, append([]byte(nil), data...))
		consumed += n
		ps.done()
	}
}

func FuzzDecodePutEntries(f *testing.F) {
	// Seeds: valid entries, an oversized declared length, a truncated
	// entry, trailing garbage, a header without its data, a negative
	// index, and empty input.
	_, ok := validPutEntries([]byte("block-a"), []byte(""), []byte("block-c"))
	f.Add(ok)
	oversized := append([]byte(nil), ok...)
	binary.BigEndian.PutUint32(oversized[4:8], 1<<30) // entry 0 claims 1 GiB
	f.Add(oversized)
	f.Add(ok[:len(ok)-3])                     // truncated final entry
	f.Add(append(ok[:len(ok):len(ok)], 0xFF)) // trailing byte
	f.Add(ok[:putEntryOverhead])              // a header with no data
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 1})  // negative index
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		indices, datas, consumed, err := decodeStreamEntries(payload)
		for i, idx := range indices {
			if idx < 0 {
				t.Fatalf("negative index %d accepted", idx)
			}
			if len(datas[i]) > len(payload) {
				t.Fatalf("entry %d has %d bytes from a %d-byte body", i, len(datas[i]), len(payload))
			}
		}
		if err == io.EOF && consumed != len(payload) {
			t.Fatalf("entries cover %d of %d payload bytes", consumed, len(payload))
		}
	})
}

func FuzzDecodeBatchResults(f *testing.F) {
	var ok []byte
	ok = appendBatchResultHeader(ok, 3, statusOK, 5)
	ok = append(ok, "hello"...)
	ok = appendBatchResultHeader(ok, 9, statusNotFound, 0)
	f.Add(ok)
	oversized := append([]byte(nil), ok...)
	binary.BigEndian.PutUint32(oversized[5:9], 1<<31-1) // entry 0 claims 2 GiB
	f.Add(oversized)
	f.Add(ok[:len(ok)-4]) // truncated final header
	f.Add([]byte{0, 0})   // short fragment

	f.Fuzz(func(t *testing.T, payload []byte) {
		results, err := decodeBatchResults(payload)
		if err != nil {
			return
		}
		total := 0
		for _, r := range results {
			if r.index < 0 {
				t.Fatalf("negative index %d accepted", r.index)
			}
			total += batchResultOverhead + len(r.bytes)
		}
		if total != len(payload) {
			t.Fatalf("results cover %d of %d payload bytes", total, len(payload))
		}
	})
}

// TestQuickPutEntriesRoundTrip checks encode→decode is the identity
// for all valid PUTSTREAM entry bodies.
func TestQuickPutEntriesRoundTrip(t *testing.T) {
	f := func(blocks [][]byte) bool {
		var buf []byte
		for i, data := range blocks {
			buf = appendPutEntryHeader(buf, i*7, len(data))
			buf = append(buf, data...)
		}
		if len(buf) > defaultMuxWindow {
			return true // more than one window is never in flight at once
		}
		indices, datas, consumed, err := decodeStreamEntries(buf)
		if err != io.EOF || len(indices) != len(blocks) || consumed != len(buf) {
			return false
		}
		for i := range indices {
			if indices[i] != i*7 || !bytes.Equal(datas[i], blocks[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBatchResultsRoundTrip checks the per-entry result codec the
// same way, cycling through every wire status.
func TestQuickBatchResultsRoundTrip(t *testing.T) {
	statuses := []byte{statusOK, statusErr, statusNotFound, statusBusy, statusUnsupported}
	f := func(bodies [][]byte) bool {
		var buf []byte
		for i, b := range bodies {
			buf = appendBatchResultHeader(buf, i, statuses[i%len(statuses)], len(b))
			buf = append(buf, b...)
		}
		results, err := decodeBatchResults(buf)
		if err != nil || len(results) != len(bodies) {
			return false
		}
		for i, r := range results {
			if r.index != i || r.status != statuses[i%len(statuses)] || !bytes.Equal(r.bytes, bodies[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
