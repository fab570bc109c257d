package trace

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
)

// Writer produces an archive: definitions first, then a chronological
// event stream. Events must be appended in globally non-decreasing
// time order (Score-P guarantees this per stream; the simulator's
// recorder emits a merged stream).
type Writer struct {
	enc   *encoder
	table *Definitions // the caller's table, read at the first event
	defs  Definitions  // the table as the archive defines it

	defsWritten bool
	lastGlobal  uint64
	closed      bool
}

// NewWriter starts a new archive on w whose definitions are the table
// defs. The writer encodes the table as it stands at the first event,
// or at Close if no event comes; a definition added after that is
// undefined to the writer. The caller keeps the table, and must not
// change the definitions the writer has taken until it is closed: a
// recorder whose runs define much the same table keeps it across
// archives and builds no other.
func NewWriter(w io.Writer, defs *Definitions) *Writer {
	return &Writer{enc: newEncoder(w), table: defs}
}

func (w *Writer) writeDefs() error {
	w.defs = *w.table
	if _, err := io.WriteString(w.enc.w, Magic); err != nil {
		return err
	}
	if err := w.enc.uvarint(uint64(len(w.defs.Locations))); err != nil {
		return err
	}
	for _, l := range w.defs.Locations {
		if err := w.enc.str(l.Name); err != nil {
			return err
		}
	}
	if err := w.enc.uvarint(uint64(len(w.defs.Regions))); err != nil {
		return err
	}
	for _, r := range w.defs.Regions {
		if err := w.enc.str(r.Name); err != nil {
			return err
		}
	}
	if err := w.enc.uvarint(uint64(len(w.defs.Metrics))); err != nil {
		return err
	}
	for _, m := range w.defs.Metrics {
		if err := w.enc.str(m.Name); err != nil {
			return err
		}
		if err := w.enc.str(m.Unit); err != nil {
			return err
		}
		if err := w.enc.byte(uint8(m.Mode)); err != nil {
			return err
		}
	}
	w.enc.lastTime = make([]uint64, len(w.defs.Locations))
	w.defsWritten = true
	return nil
}

// WriteEvent appends an event. Events must arrive in non-decreasing
// global time order; references must have been defined.
func (w *Writer) WriteEvent(ev Event) error {
	if w.closed {
		return errors.New("trace: writer closed")
	}
	if !w.defsWritten {
		if err := w.writeDefs(); err != nil {
			return err
		}
	}
	if err := w.defs.CheckEvent(ev, w.lastGlobal); err != nil {
		return err
	}
	// Per-location delta encoding of timestamps. The global order
	// check above means a location's time never goes backwards.
	last := w.enc.lastTime[ev.Location]
	w.lastGlobal = ev.TimeNs
	w.enc.lastTime[ev.Location] = ev.TimeNs

	// The whole record is appended straight into the bufio buffer.
	buf, err := w.enc.room(maxEventLen)
	if err != nil {
		return err
	}
	buf = append(buf, uint8(ev.Kind))
	buf = binary.AppendUvarint(buf, uint64(ev.Location))
	buf = binary.AppendUvarint(buf, ev.TimeNs-last)
	if ev.Kind == KindMetric {
		buf = binary.AppendUvarint(buf, uint64(ev.Metric))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ev.Value))
	} else {
		buf = binary.AppendUvarint(buf, uint64(ev.Region))
	}
	_, err = w.enc.w.Write(buf)
	return err
}

// Close flushes the archive. The writer cannot be used afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	if !w.defsWritten {
		if err := w.writeDefs(); err != nil {
			return err
		}
	}
	w.closed = true
	return w.enc.flush()
}
