package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Writer produces an archive: definitions first, then a chronological
// event stream. Events must be appended in globally non-decreasing
// time order (Score-P guarantees this per stream; the simulator's
// recorder emits a merged stream).
type Writer struct {
	enc  *encoder
	defs Definitions

	defsWritten bool
	eventCount  uint64
	lastGlobal  uint64
	closed      bool

	nextLoc, nextReg, nextMet Ref
}

// NewWriter starts a new archive on w. Definitions are registered via
// DefineLocation / DefineRegion / DefineMetric before the first event
// is written.
func NewWriter(w io.Writer) *Writer {
	return &Writer{enc: newEncoder(w)}
}

// DefineLocation registers an execution location and returns its
// reference.
func (w *Writer) DefineLocation(name string) (Ref, error) {
	if w.defsWritten {
		return 0, errors.New("trace: definitions are frozen after the first event")
	}
	ref := w.nextLoc
	w.nextLoc++
	w.defs.Locations = append(w.defs.Locations, Location{Ref: ref, Name: name})
	return ref, nil
}

// DefineRegion registers a code region and returns its reference.
func (w *Writer) DefineRegion(name string) (Ref, error) {
	if w.defsWritten {
		return 0, errors.New("trace: definitions are frozen after the first event")
	}
	ref := w.nextReg
	w.nextReg++
	w.defs.Regions = append(w.defs.Regions, Region{Ref: ref, Name: name})
	return ref, nil
}

// DefineMetric registers a metric and returns its reference.
func (w *Writer) DefineMetric(name, unit string, mode MetricMode) (Ref, error) {
	if w.defsWritten {
		return 0, errors.New("trace: definitions are frozen after the first event")
	}
	ref := w.nextMet
	w.nextMet++
	w.defs.Metrics = append(w.defs.Metrics, Metric{Ref: ref, Name: name, Unit: unit, Mode: mode})
	return ref, nil
}

func (w *Writer) writeDefs() error {
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
	if ev.TimeNs < w.lastGlobal {
		return fmt.Errorf("trace: event at %d ns violates chronological order (last %d ns)", ev.TimeNs, w.lastGlobal)
	}
	// Unsigned, so a Ref of 2^31 or more cannot turn negative on a
	// 32-bit int and slip past the check.
	if uint(ev.Location) >= uint(len(w.defs.Locations)) {
		return fmt.Errorf("trace: undefined location %d", ev.Location)
	}
	switch ev.Kind {
	case KindEnter, KindLeave:
		if uint(ev.Region) >= uint(len(w.defs.Regions)) {
			return fmt.Errorf("trace: undefined region %d", ev.Region)
		}
	case KindMetric:
		if uint(ev.Metric) >= uint(len(w.defs.Metrics)) {
			return fmt.Errorf("trace: undefined metric %d", ev.Metric)
		}
	default:
		return fmt.Errorf("trace: unknown event kind %d", ev.Kind)
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
	if _, err := w.enc.w.Write(buf); err != nil {
		return err
	}
	w.eventCount++
	return nil
}

// EventCount returns the number of events written so far.
func (w *Writer) EventCount() uint64 { return w.eventCount }

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
