// Leaf-facing surface of the exporter: the per-leaf exposition segment
// renderer a federation head uses to merge many leaf fleets into one
// namespaced /metrics body (the /api/fleet wire codec it polls them with
// is in fleetjson.go). The renderer reuses the per-shard segment shape of the
// exporter's own scrape path — family-major rows into an offset-indexed
// buffer, cached label blocks, assembly by concatenation — with a leaf
// label folded into every label block so duplicate station names across
// leaves stay distinct series.

package export

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// NumDevFamilies is the number of per-device exposition families a
// LeafRenderer renders — the same family set, in the same order, as the
// exporter's own per-shard segments.
const NumDevFamilies = nDevFams

// LeafSegment is a staged copy of one leaf's rendered segment: the
// family-major bytes and the per-family offsets that slice them. Heads
// copy segments out under their own locks (reusing Seg's backing array)
// and assemble bodies lock-free from the copies.
type LeafSegment struct {
	Seg  []byte
	Offs [NumDevFamilies + 1]int
}

// LeafRenderer renders one leaf's station statuses into a family-major
// exposition segment with a leaf label on every series. It caches the
// rendered label blocks per station (names, backends and channel sets
// are immutable for the life of a station), so steady-state re-renders
// append numbers into a reused buffer. Not safe for concurrent use; a
// head guards each leaf's renderer with that leaf's own lock.
type LeafRenderer struct {
	leaf     string
	leafFrag string // `leaf="X",` — the escaped prefix of every label block
	labels   map[string]*devLabels
	resolved []*devLabels
	seg      []byte
	offs     [nDevFams + 1]int
}

// NewLeafRenderer returns a renderer labelling every series with
// leaf="name".
func NewLeafRenderer(name string) *LeafRenderer {
	return &LeafRenderer{
		leaf:     name,
		leafFrag: `leaf="` + escapeLabel(name) + `",`,
		labels:   make(map[string]*devLabels),
	}
}

// Leaf returns the leaf name the renderer labels its series with.
func (r *LeafRenderer) Leaf() string { return r.leaf }

// labelFor resolves the cached label blocks of one station, building
// them on first sight or when the name returned with a different channel
// count (a leaf-side retire-and-readopt under the same name).
func (r *LeafRenderer) labelFor(s *fleet.Status) *devLabels {
	l, ok := r.labels[s.Name]
	if ok && len(l.pairs) != s.Pairs {
		ok = false
	}
	if !ok {
		l = &devLabels{
			dev: fmt.Sprintf(`{%sdevice="%s"}`, r.leafFrag, escapeLabel(s.Name)),
			info: fmt.Sprintf(`{%sdevice="%s",backend="%s",kind="%s"}`,
				r.leafFrag, escapeLabel(s.Name), escapeLabel(s.Backend), escapeLabel(s.Kind)),
		}
		for m := 0; m < s.Pairs; m++ {
			channel := fmt.Sprintf("pair%d", m)
			if m < len(s.Channels) {
				channel = s.Channels[m]
			}
			l.pairs = append(l.pairs, fmt.Sprintf(`{%sdevice="%s",pair="%d",channel="%s"}`,
				r.leafFrag, escapeLabel(s.Name), m, escapeLabel(channel)))
		}
		r.labels[s.Name] = l
	}
	return l
}

// Render renders devs (one leaf's /api/fleet statuses, in the order the
// leaf served them) into the renderer's segment, replacing the previous
// render. Leaf-side churn retires label-cache entries lazily: the cache
// is dropped wholesale once it holds more than twice the live station
// count, so a churny leaf cannot grow it without bound.
func (r *LeafRenderer) Render(devs []fleet.Status) {
	if len(r.labels) > 2*len(devs)+16 {
		clear(r.labels)
	}
	r.resolved = r.resolved[:0]
	for i := range devs {
		r.resolved = append(r.resolved, r.labelFor(&devs[i]))
	}
	seg := r.seg[:0]
	for f := 0; f < nDevFams; f++ {
		r.offs[f] = len(seg)
		for i := range devs {
			seg = appendDevFam(seg, f, &devs[i], r.resolved[i])
		}
	}
	r.offs[nDevFams] = len(seg)
	r.seg = seg
}

// CopySegment stages the current render into dst, reusing dst.Seg's
// backing array. Callers copy under the lock guarding Render and
// assemble from the copy, so a concurrent re-render cannot mutate bytes
// mid-assembly — the same staging discipline as the exporter's shard
// cache.
func (r *LeafRenderer) CopySegment(dst *LeafSegment) {
	dst.Seg = append(dst.Seg[:0], r.seg...)
	dst.Offs = r.offs
}

// AppendLeafSegments appends the merged station families: each
// per-device family's HELP/TYPE header, then that family's rows
// concatenated across the staged leaf segments, keeping the body
// family-major as the text format requires. Within a family, rows group
// by leaf in the order given.
func AppendLeafSegments(buf []byte, segs []LeafSegment) []byte {
	for f := 0; f < nDevFams; f++ {
		buf = append(buf, devFamHdrs[f]...)
		for i := range segs {
			buf = append(buf, segs[i].Seg[segs[i].Offs[f]:segs[i].Offs[f+1]]...)
		}
	}
	return buf
}

// Header renders one family's HELP/TYPE comment block — the exported
// form of the exposition skeleton helper, for consumers (the federation
// head) composing their own families around the fleet ones.
func Header(name, help, typ string) string { return header(name, help, typ) }

// Escape escapes a label value per the exposition text format.
func Escape(s string) string { return escapeLabel(s) }

// AppendSample renders one exposition line — name, pre-rendered label
// block, value, newline — appended into buf, with the integer fast path
// of the exporter's own scrape renderer.
func AppendSample(buf []byte, name, labels string, v float64) []byte {
	return appendSample(buf, name, labels, v)
}

// HistSeries is a pre-rendered exposition histogram series: the family's
// _bucket/_sum/_count names joined once, and a {le="..."} block per
// bucket with any extra labels folded in. Build one per (family, label
// set) at construction time; Append then renders the whole series from
// cached strings and numbers.
type HistSeries struct {
	hs                             *histSeries
	bucketName, sumName, countName string
}

// NewHistSeries pre-renders the series of family with the extra labels
// given as a rendered `k="v"` fragment ("" for none).
func NewHistSeries(family, extra string) *HistSeries {
	return &HistSeries{
		hs:         newHistSeries(extra),
		bucketName: family + "_bucket",
		sumName:    family + "_sum",
		countName:  family + "_count",
	}
}

// Append renders the histogram snapshot in exposition form: cumulative
// _bucket lines, then _sum and _count.
func (h *HistSeries) Append(buf []byte, snap *obs.HistSnapshot) []byte {
	return appendHist(buf, h.bucketName, h.sumName, h.countName, h.hs, snap)
}
