// Package transport implements the wire protocol of the real (non-simulated)
// parameter server: length-prefixed binary frames carrying float32 tensors,
// plus the blocking scheduled queue (SendQueue) that the sender and receiver
// producer/consumer loops of Section 4.2 drain. SendQueue takes its ordering
// from a sched.Discipline — fifo for the baseline wire behaviour, p3 for the
// paper's priority mechanism, credit for a ByteScheduler-style bounded
// in-flight window, or any other discipline registered in internal/sched —
// so the transport itself is policy-free.
//
// The frame layout (little-endian):
//
//	uint32  payload length (bytes after this field)
//	uint8   type
//	uint8   sender id
//	int32   priority (lower = more urgent)
//	uint64  key (chunk id)
//	int32   iteration
//	uint32  value count
//	float32 x count values
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Frame types.
const (
	TypeInit      uint8 = iota + 1 // worker -> server: set initial parameter values
	TypePush                       // worker -> server: gradient contribution
	TypePull                       // worker -> server: request current value
	TypeData                       // server -> worker: updated parameter values
	TypeNotify                     // server -> worker: key updated (no payload)
	TypeHello                      // worker -> server: register this connection
	TypeHeartbeat                  // either direction: keep-alive, refreshes the peer's read deadline
)

// MaxFrameValues bounds a single frame's tensor payload; larger tensors must
// be sliced (which P3 does anyway). Prevents hostile/corrupt length fields
// from allocating unbounded memory.
const MaxFrameValues = 1 << 24

// headerBytes is the fixed frame size excluding the leading length field and
// the values.
const headerBytes = 1 + 1 + 4 + 8 + 4 + 4

// Frame is one protocol message.
type Frame struct {
	Type     uint8
	Sender   uint8
	Priority int32
	Key      uint64
	Iter     int32
	Values   []float32

	// Dst routes an outgoing frame to a peer inside a process's send queue.
	// It is not serialized.
	Dst uint8
}

// WriteFrame serializes f to w. Callers typically wrap w in a bufio.Writer
// and flush once the send queue momentarily drains.
func WriteFrame(w io.Writer, f *Frame) error {
	if len(f.Values) > MaxFrameValues {
		return fmt.Errorf("transport: frame carries %d values, max %d", len(f.Values), MaxFrameValues)
	}
	var hdr [4 + headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(headerBytes+4*len(f.Values)))
	hdr[4] = f.Type
	hdr[5] = f.Sender
	binary.LittleEndian.PutUint32(hdr[6:], uint32(f.Priority))
	binary.LittleEndian.PutUint64(hdr[10:], f.Key)
	binary.LittleEndian.PutUint32(hdr[18:], uint32(f.Iter))
	binary.LittleEndian.PutUint32(hdr[22:], uint32(len(f.Values)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(f.Values) == 0 {
		return nil
	}
	buf := make([]byte, 4*len(f.Values))
	for i, v := range f.Values {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	_, err := w.Write(buf)
	return err
}

// ReadFrame deserializes one frame from r.
func ReadFrame(r io.Reader) (*Frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err // io.EOF propagates cleanly on clean shutdown
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < headerBytes || n > headerBytes+4*MaxFrameValues {
		return nil, fmt.Errorf("transport: invalid frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("transport: truncated frame: %w", err)
	}
	f := &Frame{
		Type:     body[0],
		Sender:   body[1],
		Priority: int32(binary.LittleEndian.Uint32(body[2:])),
		Key:      binary.LittleEndian.Uint64(body[6:]),
		Iter:     int32(binary.LittleEndian.Uint32(body[14:])),
	}
	count := binary.LittleEndian.Uint32(body[18:])
	// Compare in 64 bits: 4*count wraps in uint32, and a wrapped match
	// would allocate up to 12 GiB of values for a 26-byte frame.
	if uint64(len(body)-headerBytes) != 4*uint64(count) {
		return nil, fmt.Errorf("transport: frame declares %d values but carries %d bytes",
			count, len(body)-headerBytes)
	}
	if count > 0 {
		f.Values = make([]float32, count)
		for i := range f.Values {
			f.Values[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[headerBytes+4*i:]))
		}
	}
	return f, nil
}

// NewFrameWriter returns a buffered writer sized for typical slice frames.
func NewFrameWriter(w io.Writer) *bufio.Writer { return bufio.NewWriterSize(w, 256<<10) }

// NewFrameReader returns a buffered reader sized for typical slice frames.
func NewFrameReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, 256<<10) }
