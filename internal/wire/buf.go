package wire

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Buf is a pooled, refcounted frame buffer. The read hot path acquires one
// per frame (ReadFrameBuf), hands payload sub-slices to decoders and
// handlers, and returns the memory to its size-class pool on the final
// Release — so a pipelined connection stops allocating per frame.
//
// Ownership discipline: every AcquireBuf/ReadFrameBuf creates an
// obligation to call Release exactly once per reference. A holder that
// hands a sub-slice to another goroutine must Retain first and the
// receiver must Release when done (the SSP server does this for pack
// frames: its read loop holds its own reference across the whole pack
// and Retains once per dispatched sub-message). After the final
// Release every sub-slice of Bytes is invalid — the memory may be handed
// to a concurrent reader. The sharoes-vet resleak analyzer enforces the
// Release obligation on all paths.
type Buf struct {
	data []byte
	n    int
	pool *sync.Pool // nil for oversize (unpooled) buffers
	refs atomic.Int32
}

// bufClasses are the pooled size classes. A frame larger than the last
// class gets a plain allocation (rare: MaxMessageSize frames only occur
// on bulk List/BatchGet replies).
var bufClasses = [...]int{1 << 10, 16 << 10, 256 << 10, 4 << 20}

var bufPools = func() [len(bufClasses)]*sync.Pool {
	var pools [len(bufClasses)]*sync.Pool
	for i, size := range bufClasses {
		size := size
		pools[i] = &sync.Pool{New: func() any {
			return &Buf{data: make([]byte, size)}
		}}
	}
	return pools
}()

// AcquireBuf returns a buffer with at least n usable bytes and one
// reference. Bytes() has length exactly n; contents are undefined.
func AcquireBuf(n int) *Buf {
	for i, size := range bufClasses {
		if n <= size {
			b := bufPools[i].Get().(*Buf)
			b.pool = bufPools[i]
			b.n = n
			b.refs.Store(1)
			return b
		}
	}
	b := &Buf{data: make([]byte, n), n: n}
	b.refs.Store(1)
	return b
}

// Bytes returns the buffer's payload slice. Valid until the final
// Release.
func (b *Buf) Bytes() []byte { return b.data[:b.n] }

// Retain adds a reference; each Retain requires a matching Release.
func (b *Buf) Retain() { b.refs.Add(1) }

// Release drops one reference; the last one returns the memory to its
// pool. Releasing more times than retained is a bug and panics rather
// than silently corrupting a concurrently reused buffer.
func (b *Buf) Release() {
	switch refs := b.refs.Add(-1); {
	case refs == 0:
		if b.pool != nil {
			b.pool.Put(b)
		}
	case refs < 0:
		panic(fmt.Sprintf("wire: Buf over-released (refs %d)", refs))
	}
}

// ReadFrameBuf reads one length-prefixed message into a pooled buffer and
// returns it with the number of bytes consumed from the wire. The caller
// owns one reference and must Release it when every sub-slice of the
// payload is dead.
func ReadFrameBuf(r io.Reader) (*Buf, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3])
	if n > MaxMessageSize {
		return nil, 4, ErrTooLarge
	}
	buf := AcquireBuf(int(n))
	if _, err := io.ReadFull(r, buf.Bytes()); err != nil {
		buf.Release()
		return nil, 4, fmt.Errorf("%w: %w", ErrBadMessage, err)
	}
	return buf, 4 + int(n), nil
}
