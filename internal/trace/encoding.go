package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Low-level varint encoding helpers shared by the writer and reader.
// Timestamps are delta-encoded per location before varint packing —
// the dominant space saving identified by the OTF2 enhanced-encoding
// work for monotone event times.
//
// Both directions work inside the bufio buffer itself: the encoder
// appends into bufio.Writer.AvailableBuffer and the decoder reads
// fixed-width fields through Peek/Discard, so no per-field scratch
// array escapes to the heap and the event path allocates nothing.

// maxEventLen bounds one encoded event record: a kind byte, three
// uvarints (location, time delta, region or metric) and a float64.
const maxEventLen = 1 + 3*binary.MaxVarintLen64 + 8

type encoder struct {
	w *bufio.Writer
	// lastTime tracks the previous timestamp per location for delta
	// encoding, indexed by location ref. It is sized when the
	// definition section is written.
	lastTime []uint64
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: bufio.NewWriter(w)}
}

// room returns the writer's free buffer, emptied to the underlying
// writer first if fewer than n bytes remain, so appending up to n
// bytes to the result never reallocates.
func (e *encoder) room(n int) ([]byte, error) {
	if e.w.Available() < n {
		if err := e.w.Flush(); err != nil {
			return nil, err
		}
	}
	return e.w.AvailableBuffer(), nil
}

func (e *encoder) uvarint(v uint64) error {
	buf, err := e.room(binary.MaxVarintLen64)
	if err != nil {
		return err
	}
	_, err = e.w.Write(binary.AppendUvarint(buf, v))
	return err
}

func (e *encoder) str(s string) error {
	if err := e.uvarint(uint64(len(s))); err != nil {
		return err
	}
	_, err := e.w.WriteString(s)
	return err
}

func (e *encoder) byte(b uint8) error {
	return e.w.WriteByte(b)
}

func (e *encoder) flush() error { return e.w.Flush() }

type decoder struct {
	r *bufio.Reader
	// lastTime is the decoding twin of encoder.lastTime, sized from
	// the location definitions actually read.
	lastTime []uint64
}

func newDecoder(r io.Reader) *decoder {
	return &decoder{r: bufio.NewReader(r)}
}

func (d *decoder) uvarint() (uint64, error) {
	return binary.ReadUvarint(d.r)
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("trace: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func (d *decoder) f64() (float64, error) {
	b, err := d.r.Peek(8)
	if err != nil {
		return 0, err
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(b))
	_, err = d.r.Discard(8)
	return v, err
}

func (d *decoder) byte() (uint8, error) {
	return d.r.ReadByte()
}
