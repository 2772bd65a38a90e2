package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// Fuzz seeds: every valid encoding the unit tests exercise plus the
// corrupt-frame table, so the fuzzer starts from both sides of the
// accept/reject boundary.
func seedRequests() []*Request {
	return []*Request{
		{Op: OpPing},
		{Op: OpGet, NS: NSMeta, Key: "m/1/u/alice"},
		{Op: OpPut, NS: NSData, Key: "f/9/0/3", Val: []byte("sealed-bytes")},
		{Op: OpDelete, NS: NSSuper, Key: "sb/corp/alice"},
		{Op: OpList, NS: NSData, Prefix: "f/9/"},
		{Op: OpBatchGet, Items: []KV{{NS: NSMeta, Key: "a"}, {NS: NSData, Key: "b"}}},
		{Op: OpBatchPut, Items: []KV{
			{NS: NSMeta, Key: "a", Val: []byte("x")},
			{NS: NSData, Key: "b", Delete: true},
		}},
		{Op: OpStats},
		// Traced frame: TraceID and SpanID ride in the extension block
		// (see Request.TraceID).
		{Op: OpGet, NS: NSMeta, Key: "m/1/u/alice", TraceID: 7, SpanID: 9},
		// Multiplexed frames (see Request.ReqID), traced and untraced.
		{Op: OpGet, NS: NSMeta, Key: "m/1/u/alice", TraceID: 7, SpanID: 9, ReqID: 3},
		{Op: OpPut, NS: NSData, Key: "f/9/0/3", Val: []byte("sealed-bytes"), ReqID: 1<<64 - 1},
	}
}

func seedResponses() []*Response {
	return []*Response{
		{Status: StatusOK},
		{Status: StatusOK, Val: []byte("blob")},
		{Status: StatusNotFound},
		{Status: StatusBadRequest, Err: "unknown op"},
		{Status: StatusError, Err: "disk full"},
		{Status: StatusOK, Items: []KV{{NS: NSData, Key: "k", Val: []byte("v")}}},
		// Multiplexed frames (see Response.ReqID).
		{Status: StatusOK, Val: []byte("blob"), ReqID: 3},
		{Status: StatusNotFound, ReqID: 1<<64 - 1},
	}
}

// FuzzDecodeRequest checks that DecodeV2 never panics on request frames
// and that accepted requests survive an encode/decode round trip.
func FuzzDecodeRequest(f *testing.F) {
	for _, q := range seedRequests() {
		f.Add(q.EncodeV2())
	}
	for _, tc := range corruptFrames {
		f.Add(requestFrame(tc.b))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeV2(b)
		if err != nil {
			if m != nil {
				t.Fatal("non-nil message alongside error")
			}
			return
		}
		if m.Kind != KindRequest {
			return
		}
		// Accepted input: the decoded value must be stable under
		// re-encoding (EncodeV2 is canonical, so one more decode must
		// reproduce it exactly).
		q2, err := decodeRequest(m.Req.EncodeV2())
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !reflect.DeepEqual(normalizeReq(&m.Req), normalizeReq(q2)) {
			t.Fatalf("round trip diverged:\n  %+v\n  %+v", &m.Req, q2)
		}
	})
}

// FuzzDecodeResponse is the response-side twin of FuzzDecodeRequest.
func FuzzDecodeResponse(f *testing.F) {
	for _, p := range seedResponses() {
		f.Add(p.EncodeV2())
	}
	f.Add(responseFrame([]byte{0xff, 0xff, 0xff}))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeV2(b)
		if err != nil {
			if m != nil {
				t.Fatal("non-nil message alongside error")
			}
			return
		}
		if m.Kind != KindResponse {
			return
		}
		p2, err := decodeResponse(m.Resp.EncodeV2())
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !reflect.DeepEqual(normalizeResp(&m.Resp), normalizeResp(p2)) {
			t.Fatalf("round trip diverged:\n  %+v\n  %+v", &m.Resp, p2)
		}
	})
}

// FuzzReadFrame checks the framing layer: hostile length prefixes must be
// rejected by the size limit, and every accepted frame must return
// exactly the payload written, in a buffer that releases cleanly.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, []byte("payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		frame, n, err := ReadFrameBuf(bytes.NewReader(b))
		if err != nil {
			return
		}
		defer frame.Release()
		payload := frame.Bytes()
		if n != 4+len(payload) {
			t.Fatalf("consumed %d bytes for %d-byte payload", n, len(payload))
		}
		if len(payload) > MaxMessageSize {
			t.Fatalf("oversized payload accepted: %d", len(payload))
		}
		if !bytes.Equal(payload, b[4:n]) {
			t.Fatalf("payload differs from the bytes written")
		}
	})
}

// normalizeReq maps empty and nil slices together for comparison (the
// wire format does not distinguish them).
func normalizeReq(q *Request) *Request {
	out := *q
	if len(out.Val) == 0 {
		out.Val = nil
	}
	out.Items = normalizeKVs(out.Items)
	return &out
}

func normalizeResp(p *Response) *Response {
	out := *p
	if len(out.Val) == 0 {
		out.Val = nil
	}
	out.Items = normalizeKVs(out.Items)
	return &out
}

func normalizeKVs(items []KV) []KV {
	if len(items) == 0 {
		return nil
	}
	out := make([]KV, len(items))
	for i, kv := range items {
		if len(kv.Val) == 0 {
			kv.Val = nil
		}
		out[i] = kv
	}
	return out
}
