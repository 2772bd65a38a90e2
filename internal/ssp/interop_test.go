package ssp

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/wire"
)

// exerciseStore drives a client through every op shape the codecs
// serialize differently: small and multi-megabyte values (standalone
// frames vs packed), lists, batches, and a pipelined burst.
func exerciseStore(t *testing.T, c *Client) {
	t.Helper()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	big := bytes.Repeat([]byte("B"), 256<<10)
	if err := c.Put(wire.NSData, "big", big); err != nil {
		t.Fatalf("put big: %v", err)
	}
	got, err := c.Get(wire.NSData, "big")
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("get big: %d bytes, %v", len(got), err)
	}
	for i := 0; i < 8; i++ {
		if err := c.Put(wire.NSMeta, fmt.Sprintf("m/%d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	items, err := c.List(wire.NSMeta, "m/")
	if err != nil || len(items) != 8 {
		t.Fatalf("list: %d items, %v", len(items), err)
	}
	if err := c.BatchPut([]wire.KV{
		{NS: wire.NSMeta, Key: "m/0", Delete: true},
		{NS: wire.NSMeta, Key: "m/9", Val: []byte("nine")},
	}); err != nil {
		t.Fatalf("batchput: %v", err)
	}
	res, err := c.BatchGet([]wire.KV{
		{NS: wire.NSMeta, Key: "m/9"},
		{NS: wire.NSMeta, Key: "m/0"},
	})
	if err != nil || len(res) != 1 || string(res[0].Val) != "nine" {
		t.Fatalf("batchget: %+v, %v", res, err)
	}
	// Pipelined burst: enough concurrent calls that both directions
	// coalesce into packs when the codec allows.
	calls := make([]*Call, 32)
	for i := range calls {
		calls[i] = c.Go(&wire.Request{Op: wire.OpGet, NS: wire.NSData, Key: "big"}, nil)
	}
	for i, call := range calls {
		<-call.Done
		resp, err := call.Response()
		if err != nil {
			t.Fatalf("burst %d: %v", i, err)
		}
		if !bytes.Equal(resp.Val, big) {
			t.Fatalf("burst %d: %d bytes", i, len(resp.Val))
		}
	}
}

// TestInteropV2BothWays drives the client against the server over the
// full op surface, including pipelined pack frames in both directions.
func TestInteropV2BothWays(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	defer l.Close()
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	defer srv.Close()
	c, err := Dial(l.Dial, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exerciseStore(t, c)
}
