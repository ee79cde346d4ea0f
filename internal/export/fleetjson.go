// The /api/fleet wire codec: the versioned JSON body a leaf serves and a
// federation head decodes on every poll. Both ends are hand-written for
// the one fixed schema instead of going through encoding/json's
// reflection — the body is the federation's hot path (one per leaf per
// poll, hundreds of bytes per station) — while staying exactly what
// encoding/json would produce and accept: AppendFleetJSON writes the
// bytes json.Marshal writes, and DecodeFleetJSON accepts only bodies
// json.Unmarshal also accepts, decoding them to the same value. The
// encoding/json package stays as the test oracle for both claims.

package export

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/fleet"
)

// FleetSchemaVersion is the wire-format version of the /api/fleet JSON
// body. A federation head refuses a leaf whose schema differs — leaf and
// head builds skewing apart must fail loudly at the poll, not silently
// misrender stations. Bump it whenever a field the head consumes
// changes meaning or shape; a layout change alone (whitespace, which
// DecodeFleetJSON skips) needs none.
const FleetSchemaVersion = 1

// FleetJSON is the /api/fleet response body — the leaf side of the
// federation wire format. Schema pins the format version, Generation is
// the fleet's block-boundary fingerprint (fleet.Manager.Gen; it also
// backs the endpoint's ETag, so a head can skip both the body transfer
// and its own re-render while a leaf is quiet), and Devices carries the
// per-station statuses with everything a head consumes: health, backend,
// native rate, and the lifecycle state.
//
// Leaves serve it as compact JSON, byte-identical to json.Marshal of the
// value plus a newline (AppendFleetJSON). Heads decode it with
// DecodeFleetJSON, which skips whitespace anywhere, so the indented body
// older leaves serve still decodes.
type FleetJSON struct {
	Schema     int            `json:"schema"`
	Generation uint64         `json:"generation"`
	Devices    []fleet.Status `json:"devices"`
}

// FleetETag renders the /api/fleet ETag for a generation fingerprint.
// Shared by the serving side and any client building If-None-Match.
func FleetETag(gen uint64) string {
	return `"ps-` + strconv.FormatUint(gen, 16) + `"`
}

// AppendFleetJSON appends the /api/fleet body of generation gen over
// devs to dst: compact JSON byte-identical to
// json.Marshal(FleetJSON{FleetSchemaVersion, gen, devs}) followed by a
// newline — the same keys in the same order, the same float format and
// the same HTML-safe string escaping. The one departure is a non-finite
// float, on which json.Marshal fails: it is written as null, which both
// decoders read as 0.
func AppendFleetJSON(dst []byte, gen uint64, devs []fleet.Status) []byte {
	dst = append(dst, `{"schema":`...)
	dst = strconv.AppendInt(dst, FleetSchemaVersion, 10)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, gen, 10)
	dst = append(dst, `,"devices":`...)
	if devs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range devs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendStatusJSON(dst, &devs[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// appendStatusJSON appends one station's object, keys in fleet.Status
// field order as encoding/json emits them.
func appendStatusJSON(b []byte, s *fleet.Status) []byte {
	b = append(b, `{"name":`...)
	b = appendJSONString(b, s.Name)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, s.Kind)
	b = append(b, `,"backend":`...)
	b = appendJSONString(b, s.Backend)
	b = append(b, `,"rate_hz":`...)
	b = appendJSONFloat(b, s.RateHz)
	b = append(b, `,"channels":`...)
	if s.Channels == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, c := range s.Channels {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, c)
		}
		b = append(b, ']')
	}
	b = append(b, `,"pairs":`...)
	b = strconv.AppendInt(b, int64(s.Pairs), 10)
	b = append(b, `,"now":`...)
	b = strconv.AppendInt(b, int64(s.Now), 10)
	b = append(b, `,"watts":`...)
	b = appendJSONFloat(b, s.Watts)
	b = append(b, `,"pair_watts":`...)
	if s.PairWatts == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, w := range s.PairWatts {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, w)
		}
		b = append(b, ']')
	}
	b = append(b, `,"joules":`...)
	b = appendJSONFloat(b, s.Joules)
	b = append(b, `,"state":`...)
	b = appendJSONString(b, s.State)
	b = append(b, `,"samples":`...)
	b = strconv.AppendUint(b, s.Samples, 10)
	b = append(b, `,"marks":`...)
	b = strconv.AppendUint(b, s.Marks, 10)
	b = append(b, `,"resyncs":`...)
	b = strconv.AppendInt(b, int64(s.Resyncs), 10)
	b = append(b, `,"overhead_seconds":`...)
	b = appendJSONFloat(b, s.OverheadSeconds)
	b = append(b, `,"dropped":`...)
	b = strconv.AppendUint(b, s.Dropped, 10)
	b = append(b, `,"ring_len":`...)
	b = strconv.AppendInt(b, int64(s.RingLen), 10)
	b = append(b, `,"ring_total":`...)
	b = strconv.AppendUint(b, s.RingTotal, 10)
	b = append(b, `,"health":`...)
	b = appendJSONString(b, s.Health)
	b = append(b, `,"gaps":`...)
	b = strconv.AppendUint(b, s.Gaps, 10)
	b = append(b, `,"flatlines":`...)
	b = strconv.AppendUint(b, s.Flatlines, 10)
	b = append(b, `,"spikes_quarantined":`...)
	b = strconv.AppendUint(b, s.SpikesQuarantined, 10)
	b = append(b, `,"restarts":`...)
	b = strconv.AppendUint(b, s.Restarts, 10)
	return append(b, '}')
}

// appendJSONFloat formats f as encoding/json does: the shortest
// round-trip form, in 'f' notation except below 1e-6 and from 1e21 up,
// where it is 'e' with a two-digit negative exponent trimmed to one
// (e-07 → e-7). NaN and ±Inf have no JSON form and write null.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes a JSON string carries unescaped under
// encoding/json's HTML-safe escaping: printable ASCII except the quote,
// the backslash and <, >, &.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendJSONString appends s as a JSON string with encoding/json's
// HTML-safe escaping: the quote and backslash escaped, \b \f \n \r \t by
// name, other control bytes and <, >, & as \u00XX, U+2028 and U+2029 as
// \u2028 and \u2029, and each byte of invalid UTF-8 as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// maxSkipDepth bounds the nesting of a value DecodeFleetJSON skips under
// an unknown key — well inside encoding/json's own 10000-level limit, so
// the hand decoder never accepts what the reference decoder refuses.
const maxSkipDepth = 1000

// wireKeys is one wire object's field names in wire order, with each
// name's quoted form for the decoder's in-order fast path.
type wireKeys struct {
	names  []string
	quoted []string
}

func newWireKeys(names ...string) *wireKeys {
	k := &wireKeys{names: names}
	for _, n := range names {
		k.quoted = append(k.quoted, `"`+n+`"`)
	}
	return k
}

// The field names of the two wire objects, in wire order.
var (
	fleetKeys  = newWireKeys("schema", "generation", "devices")
	statusKeys = newWireKeys(
		"name", "kind", "backend", "rate_hz", "channels", "pairs", "now",
		"watts", "pair_watts", "joules", "state", "samples", "marks",
		"resyncs", "overhead_seconds", "dropped", "ring_len", "ring_total",
		"health", "gaps", "flatlines", "spikes_quarantined", "restarts")
)

// commonValues are the state and health strings every station carries,
// interned so a station changing state allocates nothing.
var commonValues = [...]string{
	fleet.HealthHealthy, fleet.HealthDegraded, fleet.HealthFlatlined, fleet.HealthStale,
	"adopted", "started", "stopping", "closed",
}

// DecodeFleetJSON decodes an /api/fleet body into v, replacing its
// contents. It accepts only bodies json.Unmarshal accepts and decodes
// them to the value json.Unmarshal would, with these restrictions: the
// top-level value and every device entry must be objects (not null), a
// key may not repeat within an object, a key may not differ from a field
// name by letter case alone (encoding/json would assign it to the
// field), and values skipped under unknown keys may nest at most
// maxSkipDepth deep. Whitespace is skipped anywhere, so the indented
// body of older leaves decodes too.
//
// prev is the previous view of the same leaf, or nil. Each decode
// allocates a fresh Devices slice and one PairWatts arena (sized from
// prev, so a steady-state decode allocates the same two objects at any
// fleet size); station strings and Channels slices equal to prev's are
// shared with prev instead of copied. Nothing of prev is written, so a
// view already published to readers stays intact.
func DecodeFleetJSON(body []byte, v *FleetJSON, prev []fleet.Status) error {
	d := fleetDecoder{b: body, prev: prev}
	*v = FleetJSON{}
	if err := d.fleet(v); err != nil {
		return err
	}
	d.ws()
	if d.i != len(d.b) {
		return d.fail("data after the top-level value")
	}
	return nil
}

// fleetDecoder is one decode's state: the body and read offset, the
// previous view with its merge cursor, the PairWatts arena, and scratch
// for strings carrying escapes.
type fleetDecoder struct {
	b       []byte
	i       int
	prev    []fleet.Status
	j       int // prev cursor: prev[:j] sort before the current name
	arena   []float64
	scratch []byte
}

func (d *fleetDecoder) fail(what string) error {
	return fmt.Errorf("export: /api/fleet body: %s at offset %d", what, d.i)
}

var errFleetEOF = errors.New("export: /api/fleet body: unexpected end of input")

func (d *fleetDecoder) ws() {
	b, i := d.b, d.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	d.i = i
}

// next skips whitespace and returns the next byte without consuming it.
func (d *fleetDecoder) next() (byte, error) {
	d.ws()
	if d.i >= len(d.b) {
		return 0, errFleetEOF
	}
	return d.b[d.i], nil
}

// consume skips whitespace and consumes c if it comes next.
func (d *fleetDecoder) consume(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// literal consumes the keyword lit (true, false, null) at the cursor.
func (d *fleetDecoder) literal(lit string) bool {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// null skips whitespace and consumes a null literal if one comes next.
func (d *fleetDecoder) null() bool {
	d.ws()
	return d.i < len(d.b) && d.b[d.i] == 'n' && d.literal("null")
}

// object walks one JSON object whose fields are keys.names, calling
// field with each field's index and the cursor at its value; field must
// consume the value. A key that is the next name in wire order — every
// key of a body AppendFleetJSON wrote — matches on its raw bytes; any
// other key is decoded and looked up. Repeated fields are rejected, and
// unknown keys have their values skipped.
func (d *fleetDecoder) object(keys *wireKeys, field func(k int) error) error {
	if !d.consume('{') {
		return d.fail("expected an object")
	}
	if d.consume('}') {
		return nil
	}
	var seen uint32
	k := -1 // the previous key's field
	for {
		if c, err := d.next(); err != nil {
			return err
		} else if c != '"' {
			return d.fail("expected a string key")
		}
		if k+1 < len(keys.quoted) && bytes.HasPrefix(d.b[d.i:], []byte(keys.quoted[k+1])) {
			k++
			d.i += len(keys.quoted[k])
		} else {
			key, err := d.str()
			if err != nil {
				return err
			}
			if k, err = d.lookup(key, keys); err != nil {
				return err
			}
		}
		if !d.consume(':') {
			return d.fail("expected ':' after an object key")
		}
		d.ws()
		if k < 0 {
			if err := d.skip(0); err != nil {
				return err
			}
		} else {
			if seen&(1<<k) != 0 {
				return d.fail(fmt.Sprintf("repeated key %q", keys.names[k]))
			}
			seen |= 1 << k
			if err := field(k); err != nil {
				return err
			}
		}
		if d.consume(',') {
			continue
		}
		if d.consume('}') {
			return nil
		}
		return d.fail("expected ',' or '}' in an object")
	}
}

// lookup resolves a decoded key to its field's index, or -1 for a key
// no field claims. A key equal to a field name but for letter case is an
// error: encoding/json would assign it to the field, so skipping it
// would decode a different value.
func (d *fleetDecoder) lookup(key []byte, keys *wireKeys) (int, error) {
	for k, n := range keys.names {
		if string(key) == n {
			return k, nil
		}
	}
	for _, n := range keys.names {
		if bytes.EqualFold(key, []byte(n)) {
			return 0, d.fail(fmt.Sprintf("key %q differs from field %q by case only", key, n))
		}
	}
	return -1, nil
}

func (d *fleetDecoder) fleet(v *FleetJSON) error {
	return d.object(fleetKeys, func(k int) error {
		var err error
		switch k {
		case 0: // schema
			v.Schema, err = d.intField()
		case 1: // generation
			v.Generation, err = d.uint()
		case 2: // devices
			err = d.devices(v)
		}
		return err
	})
}

// devices decodes the devices array into a fresh slice sized from prev.
func (d *fleetDecoder) devices(v *FleetJSON) error {
	if d.null() {
		v.Devices = nil
		return nil
	}
	if !d.consume('[') {
		return d.fail("devices: expected an array")
	}
	pairs := 0
	for i := range d.prev {
		pairs += len(d.prev[i].PairWatts)
	}
	devs := make([]fleet.Status, 0, len(d.prev))
	d.arena = make([]float64, 0, pairs)
	if d.consume(']') {
		v.Devices = devs
		return nil
	}
	for {
		devs = append(devs, fleet.Status{})
		if err := d.status(&devs[len(devs)-1]); err != nil {
			return err
		}
		if d.consume(',') {
			continue
		}
		if d.consume(']') {
			v.Devices = devs
			return nil
		}
		return d.fail("devices: expected ',' or ']'")
	}
}

// status decodes one device object. The station's previous status, once
// its name is known, supplies shared strings and Channels.
func (d *fleetDecoder) status(s *fleet.Status) error {
	var match *fleet.Status
	var zero fleet.Status
	prev := &zero // match, or a zero status offering nothing to share
	return d.object(statusKeys, func(k int) error {
		var err error
		switch k {
		case 0: // name
			var b []byte
			if b, err = d.strOrNull(); err == nil {
				if match = d.matchPrev(b); match != nil {
					s.Name, prev = match.Name, match
				} else {
					s.Name = string(b)
				}
			}
		case 1: // kind
			s.Kind, err = d.internedStr(prev.Kind)
		case 2: // backend
			s.Backend, err = d.internedStr(prev.Backend)
		case 3: // rate_hz
			s.RateHz, err = d.float()
		case 4: // channels
			s.Channels, err = d.channels(match)
		case 5: // pairs
			s.Pairs, err = d.intField()
		case 6: // now
			var n int64
			n, err = d.int()
			s.Now = time.Duration(n)
		case 7: // watts
			s.Watts, err = d.float()
		case 8: // pair_watts
			s.PairWatts, err = d.pairWatts()
		case 9: // joules
			s.Joules, err = d.float()
		case 10: // state
			s.State, err = d.internedStr(prev.State)
		case 11: // samples
			s.Samples, err = d.uint()
		case 12: // marks
			s.Marks, err = d.uint()
		case 13: // resyncs
			s.Resyncs, err = d.intField()
		case 14: // overhead_seconds
			s.OverheadSeconds, err = d.float()
		case 15: // dropped
			s.Dropped, err = d.uint()
		case 16: // ring_len
			s.RingLen, err = d.intField()
		case 17: // ring_total
			s.RingTotal, err = d.uint()
		case 18: // health
			s.Health, err = d.internedStr(prev.Health)
		case 19: // gaps
			s.Gaps, err = d.uint()
		case 20: // flatlines
			s.Flatlines, err = d.uint()
		case 21: // spikes_quarantined
			s.SpikesQuarantined, err = d.uint()
		case 22: // restarts
			s.Restarts, err = d.uint()
		}
		return err
	})
}

// matchPrev finds the station named name in prev, advancing the merge
// cursor: leaves serve stations sorted by name, so a steady fleet matches
// at the cursor and churn only skips ahead. An unsorted body matches
// less, never wrongly — every hit is an equal name.
func (d *fleetDecoder) matchPrev(name []byte) *fleet.Status {
	for d.j < len(d.prev) {
		p := &d.prev[d.j]
		if p.Name == string(name) {
			d.j++
			return p
		}
		if p.Name > string(name) {
			return nil
		}
		d.j++
	}
	return nil
}

// internedStr decodes a string field, returning prev (the previous
// status's value) or a common state/health value when equal instead of
// allocating a copy.
func (d *fleetDecoder) internedStr(prev string) (string, error) {
	b, err := d.strOrNull()
	if err != nil {
		return "", err
	}
	if prev == string(b) {
		return prev, nil
	}
	for _, s := range commonValues {
		if s == string(b) {
			return s, nil
		}
	}
	return string(b), nil
}

// channels decodes a channels array. While the labels equal match's,
// nothing is allocated and match's own slice is returned; the first
// difference copies the equal prefix into a fresh slice.
func (d *fleetDecoder) channels(match *fleet.Status) ([]string, error) {
	if d.null() {
		return nil, nil
	}
	if !d.consume('[') {
		return nil, d.fail("channels: expected an array")
	}
	var pc []string
	same := match != nil && match.Channels != nil
	if same {
		pc = match.Channels
	}
	var out []string
	n := 0
	if !d.consume(']') {
		for {
			d.ws()
			b, err := d.strOrNull()
			if err != nil {
				return nil, err
			}
			if same && n < len(pc) && pc[n] == string(b) {
				n++
			} else {
				if same {
					out = append(make([]string, 0, len(pc)+1), pc[:n]...)
					same = false
				}
				out = append(out, string(b))
				n++
			}
			if d.consume(',') {
				continue
			}
			if d.consume(']') {
				break
			}
			return nil, d.fail("channels: expected ',' or ']'")
		}
	}
	if same {
		if n == len(pc) {
			return pc, nil
		}
		return append(make([]string, 0, n), pc[:n]...), nil
	}
	if out == nil {
		out = []string{}
	}
	return out, nil
}

// pairWatts decodes a pair_watts array into the decode's arena. The
// result is capacity-capped, so an append by a reader reallocates rather
// than overwriting the next station's values.
func (d *fleetDecoder) pairWatts() ([]float64, error) {
	if d.null() {
		return nil, nil
	}
	if !d.consume('[') {
		return nil, d.fail("pair_watts: expected an array")
	}
	start := len(d.arena)
	if !d.consume(']') {
		for {
			d.ws()
			f, err := d.float()
			if err != nil {
				return nil, err
			}
			d.arena = append(d.arena, f)
			if d.consume(',') {
				continue
			}
			if d.consume(']') {
				break
			}
			return nil, d.fail("pair_watts: expected ',' or ']'")
		}
	}
	end := len(d.arena)
	return d.arena[start:end:end], nil
}

// strOrNull decodes a string value; null reads as the empty string, as
// encoding/json leaves a string field untouched by null. The returned
// bytes alias the body or the decoder's scratch and are valid until the
// next string decode.
func (d *fleetDecoder) strOrNull() ([]byte, error) {
	if d.i < len(d.b) && d.b[d.i] == 'n' {
		if d.literal("null") {
			return nil, nil
		}
		return nil, d.fail("invalid literal")
	}
	if d.i >= len(d.b) {
		return nil, errFleetEOF
	}
	if d.b[d.i] != '"' {
		return nil, d.fail("expected a string")
	}
	return d.str()
}

// str decodes the string starting at the cursor's quote. A string with
// no escapes and valid UTF-8 — every name a fleet serves — is returned
// as a slice of the body; otherwise it is unquoted into scratch exactly
// as encoding/json unquotes: escapes resolved, invalid surrogate escapes
// and each byte of invalid UTF-8 replaced by U+FFFD.
func (d *fleetDecoder) str() ([]byte, error) {
	b := d.b
	start := d.i + 1 // past the opening quote
	for i := start; i < len(b); {
		c := b[i]
		switch {
		case c == '"':
			d.i = i + 1
			return b[start:i], nil
		case c == '\\':
			d.i = i
			return d.unquote(start)
		case c < ' ':
			d.i = i
			return nil, d.fail("control character in a string")
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				d.i = i
				return d.unquote(start)
			}
			i += size
		}
	}
	d.i = len(b)
	return nil, errFleetEOF
}

// unquote is str's slow path: it copies the string from start (the byte
// after the opening quote) into scratch, resolving escapes, and leaves
// the cursor past the closing quote.
func (d *fleetDecoder) unquote(start int) ([]byte, error) {
	out := append(d.scratch[:0], d.b[start:d.i]...)
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			d.scratch = out
			return out, nil
		case c == '\\':
			if d.i+1 >= len(d.b) {
				return nil, errFleetEOF
			}
			esc := d.b[d.i+1]
			d.i += 2
			switch esc {
			case '"', '\\', '/':
				out = append(out, esc)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := d.hex4()
				if !ok {
					return nil, d.fail(`invalid \u escape`)
				}
				if utf16.IsSurrogate(r) {
					// A valid surrogate pair decodes to one rune. A lone
					// half is U+FFFD, and an escape after it that does
					// not complete a pair is decoded on its own.
					dec := utf8.RuneError
					if d.i+1 < len(d.b) && d.b[d.i] == '\\' && d.b[d.i+1] == 'u' {
						save := d.i
						d.i += 2
						if r2, ok := d.hex4(); ok {
							dec = utf16.DecodeRune(r, r2)
						}
						if dec == utf8.RuneError {
							d.i = save
						}
					}
					r = dec
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, d.fail("invalid escape in a string")
			}
		case c < ' ':
			return nil, d.fail("control character in a string")
		case c < utf8.RuneSelf:
			out = append(out, c)
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			out = utf8.AppendRune(out, r)
			d.i += size
		}
	}
	return nil, errFleetEOF
}

// hex4 reads the four hex digits of a \u escape at the cursor.
func (d *fleetDecoder) hex4() (rune, bool) {
	if len(d.b)-d.i < 4 {
		return 0, false
	}
	var r rune
	for _, c := range d.b[d.i : d.i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	d.i += 4
	return r, true
}

// number consumes a JSON number at the cursor, validating its grammar
// (-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?), and returns its text.
func (d *fleetDecoder) number() ([]byte, error) {
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i >= len(d.b):
		return nil, errFleetEOF
	case d.b[d.i] == '0':
		d.i++
	case '1' <= d.b[d.i] && d.b[d.i] <= '9':
		d.digits()
	default:
		return nil, d.fail("expected a number")
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if d.digits() == 0 {
			return nil, d.fail("expected a digit after '.'")
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if d.digits() == 0 {
			return nil, d.fail("expected a digit in the exponent")
		}
	}
	return d.b[start:d.i], nil
}

// digits consumes a run of decimal digits and returns its length.
func (d *fleetDecoder) digits() int {
	b, start := d.b, d.i
	i := start
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	d.i = i
	return i - start
}

// The scalar decoders take a number or null — null leaves a scalar
// field at zero, as encoding/json leaves it untouched — and apply
// strconv's parse of encoding/json: an integer field refuses a fraction,
// an exponent or an overflow, an unsigned one also a minus sign, and a
// float field a value beyond float64's range.

func (d *fleetDecoder) uint() (uint64, error) {
	if d.null() {
		return 0, nil
	}
	num, err := d.number()
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, c := range num {
		if c < '0' || c > '9' || n > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, d.fail(fmt.Sprintf("%q is not an unsigned 64-bit integer", num))
		}
		n = n*10 + uint64(c-'0')
	}
	return n, nil
}

func (d *fleetDecoder) int() (int64, error) {
	if d.null() {
		return 0, nil
	}
	num, err := d.number()
	if err != nil {
		return 0, err
	}
	digits, limit := num, uint64(math.MaxInt64)
	if num[0] == '-' {
		digits, limit = num[1:], uint64(math.MaxInt64)+1
	}
	var n uint64
	for _, c := range digits {
		if c < '0' || c > '9' || n > (limit-uint64(c-'0'))/10 {
			return 0, d.fail(fmt.Sprintf("%q is not a 64-bit integer", num))
		}
		n = n*10 + uint64(c-'0')
	}
	if num[0] == '-' {
		return -int64(n), nil
	}
	return int64(n), nil
}

// intField decodes an int field, refusing a value beyond the platform's
// int as encoding/json does.
func (d *fleetDecoder) intField() (int, error) {
	n, err := d.int()
	if err == nil && int64(int(n)) != n {
		return 0, d.fail("integer overflows int")
	}
	return int(n), err
}

func (d *fleetDecoder) float() (float64, error) {
	if d.null() {
		return 0, nil
	}
	num, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return 0, d.fail(fmt.Sprintf("%q is out of float64 range", num))
	}
	return f, nil
}

// skip consumes and validates one JSON value of any type, nested at
// most maxSkipDepth deep.
func (d *fleetDecoder) skip(depth int) error {
	if depth > maxSkipDepth {
		return d.fail("value nested too deeply")
	}
	c, err := d.next()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		d.i++
		if d.consume('}') {
			return nil
		}
		for {
			if c, err := d.next(); err != nil {
				return err
			} else if c != '"' {
				return d.fail("expected a string key")
			}
			if _, err := d.str(); err != nil {
				return err
			}
			if !d.consume(':') {
				return d.fail("expected ':' after an object key")
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			if d.consume(',') {
				continue
			}
			if d.consume('}') {
				return nil
			}
			return d.fail("expected ',' or '}' in an object")
		}
	case '[':
		d.i++
		if d.consume(']') {
			return nil
		}
		for {
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			if d.consume(',') {
				continue
			}
			if d.consume(']') {
				return nil
			}
			return d.fail("expected ',' or ']' in an array")
		}
	case '"':
		_, err := d.str()
		return err
	case 't':
		if d.literal("true") {
			return nil
		}
	case 'f':
		if d.literal("false") {
			return nil
		}
	case 'n':
		if d.literal("null") {
			return nil
		}
	default:
		_, err := d.number()
		return err
	}
	return d.fail("invalid literal")
}
