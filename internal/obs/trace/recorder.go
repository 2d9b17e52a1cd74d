package trace

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanShards spreads completed-span commits across independent buffers so
// concurrent workers do not serialize on one cursor. A power of two keeps
// the shard pick a mask.
const (
	spanShards    = 16
	counterShards = 4
)

// spanRecord is the flat committed form of one span.
type spanRecord struct {
	id     int32
	parent int32
	track  int32
	name   NameID
	start  int64
	dur    int64
	attrs  []Attr
}

// counterRecord is one counter-track sample. seq is a process-wide
// sequence number: within one goroutine it is monotonic, which gives
// counter series emitted serially (the LMS history streams) a total order
// even when the clock granularity collapses two samples onto one
// timestamp.
type counterRecord struct {
	name  string
	track int32
	t     int64
	seq   int64
	value float64
}

// shard is a bounded lock-free append buffer: a slot index is claimed with
// one atomic add and the record is written without further coordination.
// When the buffer is full new records are dropped (and counted) rather
// than wrapping, so no commit ever races a slower writer for a slot.
type shard[T any] struct {
	pos  atomic.Int64
	recs []T
}

func (s *shard[T]) put(rec T, dropped *atomic.Int64) {
	i := s.pos.Add(1) - 1
	if int(i) >= len(s.recs) {
		dropped.Add(1)
		return
	}
	s.recs[i] = rec
}

// collect returns the committed prefix of the shard.
func (s *shard[T]) collect() []T {
	n := s.pos.Load()
	if int(n) > len(s.recs) {
		n = int64(len(s.recs))
	}
	return s.recs[:n]
}

// recorder is one in-progress recording.
type recorder struct {
	epoch     time.Time
	nextID    atomic.Int32
	nextTrack atomic.Int32
	cseq      atomic.Int64
	dropped   atomic.Int64
	spans     [spanShards]shard[spanRecord]
	counters  [counterShards]shard[counterRecord]

	trackMu   sync.Mutex
	trackByID map[int32]string
	trackID   map[string]int32
}

// Config sizes a recording. The buffers are preallocated at StartRecording
// so commits never allocate; overflow drops (and counts) instead of
// growing.
type Config struct {
	// MaxSpans bounds the recorded span count (0 = 1<<16, about 4 MB).
	MaxSpans int
	// MaxCounters bounds the counter samples (0 = 1<<15).
	MaxCounters int
}

func (c Config) withDefaults() Config {
	if c.MaxSpans <= 0 {
		c.MaxSpans = 1 << 16
	}
	if c.MaxCounters <= 0 {
		c.MaxCounters = 1 << 15
	}
	return c
}

// StartRecording begins the process-wide recording. It errors if one is
// already active; recordings do not nest.
func StartRecording(cfg Config) error {
	c := cfg.withDefaults()
	r := &recorder{
		epoch:     time.Now(),
		trackByID: map[int32]string{0: "main"},
		trackID:   map[string]int32{"main": 0},
	}
	perSpan := (c.MaxSpans + spanShards - 1) / spanShards
	for i := range r.spans {
		r.spans[i].recs = make([]spanRecord, perSpan)
	}
	perCtr := (c.MaxCounters + counterShards - 1) / counterShards
	for i := range r.counters {
		r.counters[i].recs = make([]counterRecord, perCtr)
	}
	if !active.CompareAndSwap(nil, r) {
		return fmt.Errorf("trace: a recording is already active")
	}
	return nil
}

// StopRecording detaches the active recording and returns its contents
// (nil if none was active). Spans still open at stop — and any End racing
// the stop — are not part of the result, so callers stop only after the
// traced work has quiesced.
func StopRecording() *Recording {
	r := active.Swap(nil)
	if r == nil {
		return nil
	}
	rec := &Recording{Dropped: r.dropped.Load(), Tracks: map[int32]string{}}
	r.trackMu.Lock()
	for id, name := range r.trackByID {
		rec.Tracks[id] = name
	}
	r.trackMu.Unlock()
	for i := range r.spans {
		for _, sr := range r.spans[i].collect() {
			rec.Spans = append(rec.Spans, SpanData{
				ID:     sr.id,
				Parent: sr.parent,
				Track:  sr.track,
				Name:   nameOf(sr.name),
				Start:  sr.start,
				Dur:    sr.dur,
				Attrs:  sr.attrs,
			})
		}
	}
	for i := range r.counters {
		for _, cr := range r.counters[i].collect() {
			rec.Counters = append(rec.Counters, CounterData{
				Name:  cr.name,
				Track: cr.track,
				T:     cr.t,
				Seq:   cr.seq,
				Value: cr.value,
			})
		}
	}
	sort.Slice(rec.Spans, func(i, j int) bool {
		if rec.Spans[i].Start != rec.Spans[j].Start {
			return rec.Spans[i].Start < rec.Spans[j].Start
		}
		return rec.Spans[i].ID < rec.Spans[j].ID
	})
	sort.Slice(rec.Counters, func(i, j int) bool { return rec.Counters[i].Seq < rec.Counters[j].Seq })
	return rec
}

// commit files a completed span.
func (r *recorder) commit(sr spanRecord) {
	r.spans[uint32(sr.id)%spanShards].put(sr, &r.dropped)
}

// counter files one counter sample.
func (r *recorder) counter(cr counterRecord) {
	r.counters[uint32(cr.seq)%counterShards].put(cr, &r.dropped)
}

// uniqueTrack opens a fresh display track for a root span: "<name>#<id>".
func (r *recorder) uniqueTrack(name string, spanID int32) int32 {
	return r.namedTrack(name + "#" + strconv.Itoa(int(spanID)))
}

// namedTrack interns a display track by label, so repeated labels share a
// row.
func (r *recorder) namedTrack(label string) int32 {
	r.trackMu.Lock()
	defer r.trackMu.Unlock()
	if id, ok := r.trackID[label]; ok {
		return id
	}
	id := r.nextTrack.Add(1)
	r.trackID[label] = id
	r.trackByID[id] = label
	return id
}

// SpanData is the exported form of one completed span. Start and Dur are
// nanoseconds relative to the recording epoch.
type SpanData struct {
	ID     int32
	Parent int32
	Track  int32
	Name   string
	Start  int64
	Dur    int64
	Attrs  []Attr
}

// CounterData is the exported form of one counter sample.
type CounterData struct {
	Name  string
	Track int32
	T     int64
	Seq   int64
	Value float64
}

// Recording is a completed, detached trace: spans sorted by start time,
// counter samples in emission order, the display-track name table, and the
// number of records lost to buffer overflow.
type Recording struct {
	Spans    []SpanData
	Counters []CounterData
	Tracks   map[int32]string
	Dropped  int64

	// manifest is embedded verbatim at the head of every export (see
	// SetManifest); typed any so this package needs no dependency on
	// obs/provenance.
	manifest any
}

// SetManifest attaches a run-provenance manifest (typically an
// obs/provenance.Manifest) that every exporter embeds at the head of its
// output.
func (rec *Recording) SetManifest(m any) { rec.manifest = m }

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
