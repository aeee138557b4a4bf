package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// BucketUpperBound returns the exclusive upper edge of histogram bucket i:
// bucket i covers [2^i, 2^(i+1)).
func BucketUpperBound(i int) int64 { return int64(1) << uint(i+1) }

// CumBucket is one cumulative histogram bucket in exposition form: Count
// observations were ≤ Upper. The final bucket has Upper == math.MaxInt64
// (rendered as le="+Inf") and carries the total count.
type CumBucket struct {
	Upper int64
	Count int64
}

// HistData is a point-in-time copy of a histogram's full state, including
// per-bucket counts (Snapshot carries only summary statistics).
type HistData struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets [histBuckets]int64
}

// Cumulative converts the raw bucket counts to exposition-format cumulative
// buckets: one entry per occupied bucket plus the trailing +Inf bucket.
func (d *HistData) Cumulative() []CumBucket {
	out := make([]CumBucket, 0, 8)
	var cum int64
	for i := 0; i < histBuckets; i++ {
		if d.Buckets[i] == 0 {
			continue
		}
		cum += d.Buckets[i]
		out = append(out, CumBucket{Upper: BucketUpperBound(i), Count: cum})
	}
	return append(out, CumBucket{Upper: math.MaxInt64, Count: d.Count})
}

// data copies the histogram's state. Concurrent observers may land between
// the field loads, so Count is the sum of the bucket loads, not a load of
// h.count: an Observe that completes between the two would otherwise leave
// the finite cumulative buckets above +Inf/_count. Sum and Max may be an
// observation ahead of or behind the buckets.
func (h *Histogram) data() HistData {
	d := HistData{Sum: h.sum.Load(), Max: h.max.Load()}
	for i := range h.buckets {
		d.Buckets[i] = h.buckets[i].Load()
		d.Count += d.Buckets[i]
	}
	return d
}

// Cumulative returns the histogram's exposition-format cumulative buckets.
func (h *Histogram) Cumulative() []CumBucket {
	d := h.data()
	return d.Cumulative()
}

// QuantileFromCumulative estimates the q-th quantile from cumulative
// buckets, returning the upper edge of the bucket containing the quantile —
// the same estimator Histogram.Quantile uses before clamping to the observed
// max. It lets scrapers recompute quantiles from /metrics output.
func QuantileFromCumulative(buckets []CumBucket, q float64) int64 {
	if len(buckets) == 0 {
		return 0
	}
	total := buckets[len(buckets)-1].Count
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	for _, b := range buckets {
		if b.Count >= rank {
			return b.Upper
		}
	}
	return buckets[len(buckets)-1].Upper
}

// Point is one sample of a gathered family: a label-value tuple plus either
// a scalar value (counter/gauge) or histogram data.
type Point struct {
	LabelValues []string
	Value       int64
	Hist        *HistData
}

// GatheredFamily is one metric family in a Gather snapshot. Unlabeled
// registry metrics appear as families with no label names and one point.
type GatheredFamily struct {
	Name       string
	Kind       Kind
	LabelNames []string
	Points     []Point
}

// Gather snapshots every metric in the registry — unlabeled counters,
// gauges and histograms plus all labeled families — sorted by name. It is
// the single source for the Prometheus writer, /status handlers and tests.
func (r *Registry) Gather() []GatheredFamily {
	r.mu.Lock()
	out := make([]GatheredFamily, 0, len(r.counters)+len(r.gauges)+len(r.histograms)+len(r.families))
	for name, c := range r.counters {
		out = append(out, GatheredFamily{Name: name, Kind: KindCounter, Points: []Point{{Value: c.Value()}}})
	}
	for name, g := range r.gauges {
		out = append(out, GatheredFamily{Name: name, Kind: KindGauge, Points: []Point{{Value: g.Value()}}})
	}
	fams := make([]*family, 0, len(r.families))
	hists := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		hists[name] = h
	}
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()

	// Histograms and family children are copied outside the registry lock:
	// they are internally synchronised, and a 42-bucket copy per histogram
	// is too much work to hold the map lock over.
	for name, h := range hists {
		d := h.data()
		out = append(out, GatheredFamily{Name: name, Kind: KindHistogram, Points: []Point{{Hist: &d}}})
	}
	for _, f := range fams {
		gf := GatheredFamily{Name: f.name, Kind: f.kind, LabelNames: f.labels}
		for _, k := range f.sortedKids() {
			p := Point{LabelValues: k.values}
			switch f.kind {
			case KindCounter:
				p.Value = k.c.Value()
			case KindGauge:
				p.Value = k.g.Value()
			case KindHistogram:
				d := k.h.data()
				p.Hist = &d
			}
			gf.Points = append(gf.Points, p)
		}
		out = append(out, gf)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SanitizeName maps an internal metric name (dotted, e.g. "broker.requests")
// to a Prometheus-legal name: every character outside [a-zA-Z0-9_:] becomes
// an underscore, and a leading digit gains an underscore prefix.
func SanitizeName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// formatLabels renders {name="value",...} for a point, with extra appended
// as a pre-rendered pair (used for the histogram le label). Returns "" when
// there is nothing to render.
func formatLabels(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(SanitizeName(n))
		b.WriteString(`="`)
		if i < len(values) {
			b.WriteString(escapeLabelValue(values[i]))
		}
		b.WriteByte('"')
	}
	if extra != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders the registry in Prometheus text exposition format
// (version 0.0.4): a # TYPE line per family, counters and gauges as single
// samples, histograms as cumulative _bucket{le=...} samples plus _sum and
// _count. Internal dotted names are sanitized (broker.requests →
// broker_requests).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, fam := range r.Gather() {
		name := SanitizeName(fam.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, fam.Kind); err != nil {
			return err
		}
		for _, p := range fam.Points {
			if fam.Kind != KindHistogram {
				if _, err := fmt.Fprintf(w, "%s%s %d\n", name, formatLabels(fam.LabelNames, p.LabelValues, ""), p.Value); err != nil {
					return err
				}
				continue
			}
			for _, b := range p.Hist.Cumulative() {
				le := `le="+Inf"`
				if b.Upper != math.MaxInt64 {
					le = fmt.Sprintf(`le="%d"`, b.Upper)
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, formatLabels(fam.LabelNames, p.LabelValues, le), b.Count); err != nil {
					return err
				}
			}
			labels := formatLabels(fam.LabelNames, p.LabelValues, "")
			if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, labels, p.Hist.Sum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, p.Hist.Count); err != nil {
				return err
			}
		}
	}
	return nil
}
