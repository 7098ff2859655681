package transport

import (
	"bytes"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the frame decoder, the first code
// to touch anything that arrives off the network. ReadFrame must never
// panic, and every frame it accepts must re-encode through WriteFrame to
// exactly the bytes it consumed: the codec has one wire form per frame.
func FuzzReadFrame(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteFrame(&valid, &Frame{Type: TypePush, Sender: 2, Priority: -3, Key: 1 << 40, Iter: 7, Values: []float32{1.5, -0.25, 3}}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	var empty bytes.Buffer
	if err := WriteFrame(&empty, &Frame{Type: TypeHeartbeat}); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		fr, err := ReadFrame(r)
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		var out bytes.Buffer
		if err := WriteFrame(&out, fr); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("round trip differs:\n in  %x\n out %x", consumed, out.Bytes())
		}
	})
}
