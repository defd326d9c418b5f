package obs

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceStore defaults for TraceStoreOptions zero values.
const (
	// DefaultTraceCap bounds the recent-trace ring.
	DefaultTraceCap = 256
	// DefaultSlowTraceCap is the extra retention reserved for slow traces,
	// so a flood of fast requests never evicts the interesting ones.
	DefaultSlowTraceCap = 64
	// DefaultSlowThreshold marks a trace slow when a local root span
	// exceeds it.
	DefaultSlowThreshold = time.Second
	// DefaultMaxSpansPerTrace caps one trace's span list.
	DefaultMaxSpansPerTrace = 512
	// DefaultProfileDuration is how long an automatic slow-trace CPU
	// capture runs.
	DefaultProfileDuration = 5 * time.Second
	// slowProfileCooldown spaces automatic captures so a sustained overload
	// produces a few representative profiles, not a disk full of them.
	slowProfileCooldown = time.Minute
)

// SpanRecord is one finished span as retained by the trace store and
// rendered by /debug/traces — IDs are hex strings (trace: 32, span: 16) so
// they survive JSON float64 decoding and match W3C traceparent fields.
type SpanRecord struct {
	// Name is the span's operation name.
	Name string `json:"name"`
	// SpanID is the span's 16-hex-char id.
	SpanID string `json:"span_id"`
	// ParentID is the parent span's id, empty at a trace-local root.
	ParentID string `json:"parent_id,omitempty"`
	// Start is when the span began.
	Start time.Time `json:"start"`
	// DurationMS is the span's wall time in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// Attrs are the span's key/value annotations.
	Attrs []Attr `json:"attrs,omitempty"`
	// Events are the span's timestamped point annotations.
	Events []SpanEvent `json:"events,omitempty"`
	// Error is the failure message of a span marked with SetError.
	Error string `json:"error,omitempty"`
}

// Trace is one retained trace: every finished span sharing a trace ID.
// Spans from a re-delivered durable job join the submitting request's
// trace, so one Trace can span a crash and restart of the worker side.
type Trace struct {
	// ID is the 32-hex-char trace id.
	ID string `json:"trace_id"`
	// Root names the first process-local root span seen (the entry point).
	Root string `json:"root"`
	// Start is the earliest span start.
	Start time.Time `json:"start"`
	// DurationMS is the wall time from the earliest span start to the
	// latest span end.
	DurationMS float64 `json:"duration_ms"`
	// Slow marks traces whose local root exceeded the store's threshold.
	Slow bool `json:"slow"`
	// Dropped counts spans discarded past the per-trace cap.
	Dropped int `json:"dropped_spans,omitempty"`
	// Spans is the retained span list, sorted by start time.
	Spans []SpanRecord `json:"spans"`
}

// TraceSummary is the /debug/traces listing entry for one trace.
type TraceSummary struct {
	// ID is the 32-hex-char trace id.
	ID string `json:"trace_id"`
	// Root names the trace's entry-point span.
	Root string `json:"root"`
	// Start is the earliest span start.
	Start time.Time `json:"start"`
	// DurationMS is the trace's wall time in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// Spans counts retained spans.
	Spans int `json:"spans"`
	// Slow marks traces past the slow threshold.
	Slow bool `json:"slow"`
}

// TraceStoreOptions tunes a TraceStore; zero values select the defaults
// above.
type TraceStoreOptions struct {
	// Cap bounds the recent-trace ring; <= 0 means DefaultTraceCap.
	Cap int
	// SlowCap is the extra ring reserved for slow traces; <= 0 means
	// DefaultSlowTraceCap.
	SlowCap int
	// SlowThreshold marks a trace slow when a local root span exceeds it;
	// <= 0 means DefaultSlowThreshold.
	SlowThreshold time.Duration
	// MaxSpans caps one trace's retained spans; <= 0 means
	// DefaultMaxSpansPerTrace.
	MaxSpans int
	// ProfileDir enables automatic CPU capture: when a slow trace is
	// detected (and no capture is running, and the cooldown has passed) a
	// CPU profile of ProfileDuration is written to
	// ProfileDir/slowtrace-<traceid>.pprof. Empty disables.
	ProfileDir string
	// ProfileDuration bounds one automatic capture; <= 0 means
	// DefaultProfileDuration.
	ProfileDuration time.Duration
	// OnSlow, when non-nil, replaces the automatic-capture action entirely
	// (tests hook it); it runs synchronously under no lock.
	OnSlow func(traceID string, rootDuration time.Duration)
}

// TraceStore is a bounded in-process retention buffer of recent traces,
// the backing of /debug/traces. Two rings share it: a recent ring of
// capacity Cap evicted FIFO, and a slow ring of capacity SlowCap holding
// traces whose local root span exceeded SlowThreshold — the retention bias
// that keeps the requests worth debugging around even when fast traffic
// churns the recent ring in seconds. A slow trace can additionally trigger
// one automatic pprof CPU capture (rate-limited) so the cause of a latency
// excursion is captured while it is still happening.
//
// All methods are safe for concurrent use; record is called from Span.End
// and stays cheap (one mutex, no I/O).
type TraceStore struct {
	opts TraceStoreOptions

	mu        sync.Mutex
	m         map[string]*Trace
	order     []string // recent-ring FIFO of trace IDs
	slowOrder []string // slow-ring FIFO of trace IDs

	capturing   atomic.Bool
	lastCapture atomic.Int64 // unix nanos of the last capture start
}

// NewTraceStore builds a store with opts (zero values select defaults).
func NewTraceStore(opts TraceStoreOptions) *TraceStore {
	if opts.Cap <= 0 {
		opts.Cap = DefaultTraceCap
	}
	if opts.SlowCap <= 0 {
		opts.SlowCap = DefaultSlowTraceCap
	}
	if opts.SlowThreshold <= 0 {
		opts.SlowThreshold = DefaultSlowThreshold
	}
	if opts.MaxSpans <= 0 {
		opts.MaxSpans = DefaultMaxSpansPerTrace
	}
	if opts.ProfileDuration <= 0 {
		opts.ProfileDuration = DefaultProfileDuration
	}
	return &TraceStore{opts: opts, m: make(map[string]*Trace)}
}

type traceStoreCtxKey struct{}

// WithTraceStore routes spans ended under ctx into s.
func WithTraceStore(ctx context.Context, s *TraceStore) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, traceStoreCtxKey{}, s)
}

// TraceStoreFromContext returns the trace store carried by ctx, or nil
// (tracing disabled).
func TraceStoreFromContext(ctx context.Context) *TraceStore {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(traceStoreCtxKey{}).(*TraceStore)
	return s
}

// record retains one finished span. Called from Span.End.
func (s *TraceStore) record(sp *Span, d time.Duration) {
	id := sp.TraceID.String()
	end := sp.start.Add(d)
	rec := SpanRecord{
		Name:       sp.Name,
		SpanID:     FormatSpanID(sp.SpanID),
		Start:      sp.start,
		DurationMS: float64(d.Microseconds()) / 1000,
	}
	if sp.ParentID != 0 {
		rec.ParentID = FormatSpanID(sp.ParentID)
	}
	sp.mu.Lock()
	if len(sp.attrs) > 0 {
		rec.Attrs = append([]Attr(nil), sp.attrs...)
	}
	if len(sp.events) > 0 {
		rec.Events = append([]SpanEvent(nil), sp.events...)
	}
	if sp.failed {
		rec.Error = sp.errMsg
		if rec.Error == "" {
			rec.Error = "error"
		}
	}
	sp.mu.Unlock()

	slowRoot := !sp.local && d >= s.opts.SlowThreshold

	s.mu.Lock()
	tr, ok := s.m[id]
	if !ok {
		tr = &Trace{ID: id, Start: sp.start}
		s.m[id] = tr
		s.order = append(s.order, id)
	}
	if sp.start.Before(tr.Start) {
		tr.Start = sp.start
	}
	if endMS := float64(end.Sub(tr.Start).Microseconds()) / 1000; endMS > tr.DurationMS {
		tr.DurationMS = endMS
	}
	if !sp.local && tr.Root == "" {
		tr.Root = sp.Name
	}
	if len(tr.Spans) < s.opts.MaxSpans {
		tr.Spans = append(tr.Spans, rec)
	} else {
		tr.Dropped++
	}
	if slowRoot && !tr.Slow {
		tr.Slow = true
		// Move the trace from the recent ring to the slow ring so fast
		// traffic cannot evict it.
		for i, tid := range s.order {
			if tid == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.slowOrder = append(s.slowOrder, id)
	}
	for len(s.order) > s.opts.Cap {
		delete(s.m, s.order[0])
		s.order = s.order[1:]
	}
	for len(s.slowOrder) > s.opts.SlowCap {
		delete(s.m, s.slowOrder[0])
		s.slowOrder = s.slowOrder[1:]
	}
	s.mu.Unlock()

	if slowRoot {
		if s.opts.OnSlow != nil {
			s.opts.OnSlow(id, d)
		} else {
			s.maybeCapture(id)
		}
	}
}

// maybeCapture starts one automatic CPU capture for a slow trace, unless
// disabled, already capturing, or within the cooldown window.
func (s *TraceStore) maybeCapture(traceID string) {
	if s.opts.ProfileDir == "" {
		return
	}
	last := s.lastCapture.Load()
	if last != 0 && time.Since(time.Unix(0, last)) < slowProfileCooldown {
		return
	}
	if !s.capturing.CompareAndSwap(false, true) {
		return
	}
	s.lastCapture.Store(time.Now().UnixNano())
	path := filepath.Join(s.opts.ProfileDir, "slowtrace-"+traceID+".pprof")
	stop, err := StartProfile("cpu", path)
	if err != nil {
		s.capturing.Store(false)
		DefaultLogger().Event(nil, LevelWarn, "trace.capture", "error", err.Error())
		return
	}
	DefaultLogger().Event(nil, LevelInfo, "trace.capture",
		"trace_id", traceID, "path", path,
		"duration", s.opts.ProfileDuration.String())
	go func() {
		time.Sleep(s.opts.ProfileDuration)
		if err := stop(); err != nil {
			DefaultLogger().Event(nil, LevelWarn, "trace.capture", "error", err.Error())
		}
		s.capturing.Store(false)
	}()
}

// Len reports how many traces are currently retained.
func (s *TraceStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Traces lists retained traces, newest first (slow and recent interleaved
// by start time).
func (s *TraceStore) Traces() []TraceSummary {
	s.mu.Lock()
	out := make([]TraceSummary, 0, len(s.m))
	for _, tr := range s.m {
		out = append(out, TraceSummary{
			ID: tr.ID, Root: tr.Root, Start: tr.Start,
			DurationMS: tr.DurationMS, Spans: len(tr.Spans), Slow: tr.Slow,
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// Get returns a copy of the trace with the given 32-hex-char id, spans
// sorted by start time (the waterfall order).
func (s *TraceStore) Get(id string) (Trace, bool) {
	s.mu.Lock()
	tr, ok := s.m[id]
	if !ok {
		s.mu.Unlock()
		return Trace{}, false
	}
	cp := *tr
	cp.Spans = append([]SpanRecord(nil), tr.Spans...)
	s.mu.Unlock()
	sort.Slice(cp.Spans, func(i, j int) bool { return cp.Spans[i].Start.Before(cp.Spans[j].Start) })
	return cp, true
}

// String renders a one-line census for logs.
func (s *TraceStore) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("tracestore{recent=%d slow=%d}", len(s.order), len(s.slowOrder))
}
