package trace

import (
	"errors"
	"fmt"
	"io"
)

// Reader consumes an archive produced by Writer: definitions up front,
// then events in chronological order.
type Reader struct {
	dec  *decoder
	defs Definitions
}

// MaxDefinitions bounds each definition count (locations, regions,
// metrics) an archive may declare. The counts are attacker-controlled
// uvarints that size append loops, so without a bound a corrupt or
// hostile archive can demand gigabytes of allocations before the
// decoder ever hits EOF. Real archives hold one location per core and
// a few dozen regions/metrics; 1<<20 is comfortably above any
// legitimate trace while keeping the worst-case pre-validation
// allocation small.
const MaxDefinitions = 1 << 20

// NewReader opens an archive from r, reading the definition section
// eagerly.
func NewReader(r io.Reader) (*Reader, error) {
	d := newDecoder(r)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(d.r, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	rd := &Reader{dec: d}

	nLoc, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: reading location count: %w", err)
	}
	if nLoc > MaxDefinitions {
		return nil, fmt.Errorf("trace: archive declares %d locations (limit %d); corrupt or hostile definition section", nLoc, MaxDefinitions)
	}
	for i := uint64(0); i < nLoc; i++ {
		name, err := d.str()
		if err != nil {
			return nil, fmt.Errorf("trace: reading location %d: %w", i, err)
		}
		rd.defs.Locations = append(rd.defs.Locations, Location{Ref: Ref(i), Name: name})
	}
	nReg, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: reading region count: %w", err)
	}
	if nReg > MaxDefinitions {
		return nil, fmt.Errorf("trace: archive declares %d regions (limit %d); corrupt or hostile definition section", nReg, MaxDefinitions)
	}
	for i := uint64(0); i < nReg; i++ {
		name, err := d.str()
		if err != nil {
			return nil, fmt.Errorf("trace: reading region %d: %w", i, err)
		}
		rd.defs.Regions = append(rd.defs.Regions, Region{Ref: Ref(i), Name: name})
	}
	nMet, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: reading metric count: %w", err)
	}
	if nMet > MaxDefinitions {
		return nil, fmt.Errorf("trace: archive declares %d metrics (limit %d); corrupt or hostile definition section", nMet, MaxDefinitions)
	}
	for i := uint64(0); i < nMet; i++ {
		name, err := d.str()
		if err != nil {
			return nil, fmt.Errorf("trace: reading metric %d name: %w", i, err)
		}
		unit, err := d.str()
		if err != nil {
			return nil, fmt.Errorf("trace: reading metric %d unit: %w", i, err)
		}
		mode, err := d.byte()
		if err != nil {
			return nil, fmt.Errorf("trace: reading metric %d mode: %w", i, err)
		}
		rd.defs.Metrics = append(rd.defs.Metrics, Metric{
			Ref: Ref(i), Name: name, Unit: unit, Mode: MetricMode(mode),
		})
	}
	d.lastTime = make([]uint64, len(rd.defs.Locations))
	return rd, nil
}

// Definitions returns the archive's definition section.
func (r *Reader) Definitions() *Definitions { return &r.defs }

// Next returns the next event, or io.EOF at the end of the archive.
func (r *Reader) Next() (Event, error) {
	kindB, err := r.dec.byte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Event{}, io.EOF
		}
		return Event{}, fmt.Errorf("trace: reading event kind: %w", err)
	}
	ev := Event{Kind: EventKind(kindB)}

	loc, err := r.dec.uvarint()
	if err != nil {
		return Event{}, fmt.Errorf("trace: reading location: %w", noEOF(err))
	}
	// Compare unsigned: a uvarint of 2^63 or more would turn
	// negative as an int and slip past the check.
	if loc >= uint64(len(r.defs.Locations)) {
		return Event{}, fmt.Errorf("trace: event references undefined location %d", loc)
	}
	ev.Location = Ref(loc)

	delta, err := r.dec.uvarint()
	if err != nil {
		return Event{}, fmt.Errorf("trace: reading timestamp: %w", noEOF(err))
	}
	ev.TimeNs = r.dec.lastTime[loc] + delta
	r.dec.lastTime[loc] = ev.TimeNs

	switch ev.Kind {
	case KindEnter, KindLeave:
		reg, err := r.dec.uvarint()
		if err != nil {
			return Event{}, fmt.Errorf("trace: reading region: %w", noEOF(err))
		}
		if reg >= uint64(len(r.defs.Regions)) {
			return Event{}, fmt.Errorf("trace: event references undefined region %d", reg)
		}
		ev.Region = Ref(reg)
	case KindMetric:
		met, err := r.dec.uvarint()
		if err != nil {
			return Event{}, fmt.Errorf("trace: reading metric ref: %w", noEOF(err))
		}
		if met >= uint64(len(r.defs.Metrics)) {
			return Event{}, fmt.Errorf("trace: event references undefined metric %d", met)
		}
		ev.Metric = Ref(met)
		v, err := r.dec.f64()
		if err != nil {
			return Event{}, fmt.Errorf("trace: reading metric value: %w", noEOF(err))
		}
		ev.Value = v
	default:
		return Event{}, fmt.Errorf("trace: unknown event kind %d", kindB)
	}
	return ev, nil
}

// noEOF converts a bare io.EOF seen in the middle of an event record
// into io.ErrUnexpectedEOF, so that only a clean end-of-stream (EOF at
// an event boundary) reads as normal termination.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
