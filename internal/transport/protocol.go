// Package transport implements the RobuSTore block protocol between
// clients and storage servers over TCP. The Client implements
// blockstore.Store and blockstore.Streamer, so the RobuSTore client
// library treats local and remote stores uniformly; the Server
// exposes any blockstore.Store on the network, optionally behind an
// admission controller (§5.4).
//
// Every connection speaks one framed, multiplexed protocol from its
// first byte (DESIGN.md §10). All integers are big-endian; a frame is
//
//	[4B frame length][1B kind][4B stream id][body...]
//
// and the connection opens with one SETTINGS frame in each direction
// (stream id 0, body [4B window][4B max streams]): the client
// proposes, the server answers with the per-field minimum of the
// proposal and its own limits, and both sides use that. A first frame
// of any other kind, or a second SETTINGS frame later on, closes the
// connection without serving anything. After the preface each
// exchange is its own stream of REQ frames answered by RESP frames
// (see mux.go), under per-stream flow control.
//
// The REQ chunks of a stream concatenate to one request body:
//
//	[1B op][2B segment length][segment][4B index][payload...]
//
// and the RESP chunks to the response payload, with the status byte
// on every RESP frame. The seven ops:
//
//	PUT        index = block; payload = block → empty
//	GET        index = block → the block
//	DELETE     index = entry count; payload = count × [4B index]
//	           → count × [4B index][1B status][4B length][message]
//	LIST       → [4B index]... of the blocks stored
//	SCRUB      → [4B index]... of the blocks failing verification
//	PING       → empty
//	PUTSTREAM  index = entry count; payload = count × [4B index]
//	           [4B length][data], consumed incrementally: each entry is
//	           stored as soon as it is complete and acknowledged at once
//	           with one DELETE-shaped result entry, streamed back as RESP
//	           chunks. Credit is granted only as entries are consumed, so
//	           server buffering is bounded by the stream window.
//
// An error response's payload is the message text. Per-entry statuses
// mean one bad block never fails its DELETE or PUTSTREAM.
package transport

import (
	"encoding/binary"
	"fmt"
)

// Operation codes.
const (
	opPut       = byte(1)
	opGet       = byte(2)
	opDelete    = byte(3) // index list in, per-entry statuses out
	opList      = byte(4)
	opPing      = byte(5)
	opScrub     = byte(6) // verify a segment in place, return bad indices
	opPutStream = byte(7) // pipelined put over one stream with per-entry acks
)

// Response status codes.
const (
	statusOK          = byte(0)
	statusErr         = byte(1)
	statusNotFound    = byte(2)
	statusBusy        = byte(3) // admission controller refused the request
	statusUnsupported = byte(4) // server cannot perform the op (e.g. SCRUB without checksums)
)

// MaxFrame bounds a frame's size (op + header + payload); it limits
// both allocation on malformed input and the largest storable block.
const MaxFrame = 64 << 20

// request is a decoded request frame.
type request struct {
	op      byte
	segment string
	index   int
	payload []byte
}

// encodeRequest serializes a request body.
func encodeRequest(op byte, segment string, index int, payload []byte) ([]byte, error) {
	if len(segment) > 0xFFFF {
		return nil, fmt.Errorf("transport: segment name too long (%d bytes)", len(segment))
	}
	if index < 0 {
		return nil, fmt.Errorf("transport: negative block index")
	}
	body := make([]byte, 1+2+len(segment)+4, 1+2+len(segment)+4+len(payload))
	body[0] = op
	binary.BigEndian.PutUint16(body[1:3], uint16(len(segment)))
	copy(body[3:], segment)
	binary.BigEndian.PutUint32(body[3+len(segment):], uint32(index))
	return append(body, payload...), nil
}

// requestHeaderLen is the fixed request header size before the
// payload: op + segment length + segment + index.
func requestHeaderLen(segment string) int { return 1 + 2 + len(segment) + 4 }

// appendRequestHeader appends a request header to dst (the pooled-
// buffer twin of encodeRequest; the payload travels as its own
// chunks). The segment must already be length-checked.
func appendRequestHeader(dst []byte, op byte, segment string, index int) []byte {
	var h [7]byte
	h[0] = op
	binary.BigEndian.PutUint16(h[1:3], uint16(len(segment)))
	dst = append(dst, h[:3]...)
	dst = append(dst, segment...)
	binary.BigEndian.PutUint32(h[3:7], uint32(index))
	return append(dst, h[3:7]...)
}

// peekRequest reports a request body's op and header length once
// enough of it has arrived to read them — how the mux server spots a
// PUTSTREAM stream before its body is complete.
func peekRequest(buf []byte) (op byte, hdrLen int, ok bool) {
	if len(buf) < 3 {
		return 0, 0, false
	}
	segLen := int(binary.BigEndian.Uint16(buf[1:3]))
	hdrLen = 3 + segLen + 4
	if len(buf) < hdrLen {
		return 0, 0, false
	}
	return buf[0], hdrLen, true
}

// decodeRequest parses a request body.
func decodeRequest(body []byte) (request, error) {
	if len(body) < 7 {
		return request{}, fmt.Errorf("transport: short request frame (%d bytes)", len(body))
	}
	op := body[0]
	segLen := int(binary.BigEndian.Uint16(body[1:3]))
	if len(body) < 3+segLen+4 {
		return request{}, fmt.Errorf("transport: truncated request frame")
	}
	seg := string(body[3 : 3+segLen])
	idx := int(binary.BigEndian.Uint32(body[3+segLen : 3+segLen+4]))
	payload := body[3+segLen+4:]
	return request{op: op, segment: seg, index: idx, payload: payload}, nil
}

// encodeIndices packs an index list: a LIST or SCRUB response, a
// DELETE request payload.
func encodeIndices(indices []int) []byte {
	out := make([]byte, 4*len(indices))
	for i, idx := range indices {
		binary.BigEndian.PutUint32(out[4*i:], uint32(idx))
	}
	return out
}

// decodeIndices unpacks an index list.
func decodeIndices(payload []byte) ([]int, error) {
	if len(payload)%4 != 0 {
		return nil, fmt.Errorf("transport: malformed index list (%d bytes)", len(payload))
	}
	out := make([]int, len(payload)/4)
	for i := range out {
		out[i] = int(binary.BigEndian.Uint32(payload[4*i:]))
	}
	return out, nil
}

// putEntryOverhead is the per-entry header size in a PUTSTREAM
// request body: [4B index][4B length].
const putEntryOverhead = 8

// appendPutEntryHeader appends one PUTSTREAM entry header to dst; the
// entry's data travels as its own chunk.
func appendPutEntryHeader(dst []byte, index, dataLen int) []byte {
	var h [putEntryOverhead]byte
	binary.BigEndian.PutUint32(h[0:4], uint32(index))
	binary.BigEndian.PutUint32(h[4:8], uint32(dataLen))
	return append(dst, h[:]...)
}

// batchResult is one decoded per-entry result of a DELETE response or
// a PUTSTREAM ack. bytes aliases the response payload: an error
// message for a failed entry, empty otherwise.
type batchResult struct {
	index  int
	status byte
	bytes  []byte
}

// batchResultOverhead is the per-entry result header size:
// [4B index][1B status][4B length].
const batchResultOverhead = 9

// appendBatchResultHeader appends one per-entry result header to dst;
// the entry's message follows it.
func appendBatchResultHeader(dst []byte, index int, status byte, n int) []byte {
	var h [batchResultOverhead]byte
	binary.BigEndian.PutUint32(h[0:4], uint32(index))
	h[4] = status
	binary.BigEndian.PutUint32(h[5:9], uint32(n))
	return append(dst, h[:]...)
}

// decodeBatchResults parses a sequence of per-entry results.
func decodeBatchResults(payload []byte) ([]batchResult, error) {
	out := make([]batchResult, 0, len(payload)/batchResultOverhead)
	for len(payload) > 0 {
		if len(payload) < batchResultOverhead {
			return nil, fmt.Errorf("transport: truncated batch result header (%d bytes)", len(payload))
		}
		idx := int(binary.BigEndian.Uint32(payload[0:4]))
		status := payload[4]
		n := int(binary.BigEndian.Uint32(payload[5:9]))
		payload = payload[batchResultOverhead:]
		if idx < 0 || n < 0 || n > len(payload) {
			return nil, fmt.Errorf("transport: oversized batch result (%d bytes)", n)
		}
		out = append(out, batchResult{index: idx, status: status, bytes: payload[:n]})
		payload = payload[n:]
	}
	return out, nil
}
