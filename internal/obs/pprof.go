package obs

// pprof rendering: serialize a profiler snapshot as a gzip-compressed
// profile.proto message so `go tool pprof` consumes it directly. The wire
// format is hand-rolled — the repo is dependency-free, and the subset of
// protobuf a pprof profile needs (varints, length-delimited fields, packed
// repeated integers) is a page of code. Field numbers follow
// github.com/google/pprof/proto/profile.proto.
//
// A minimal parser for the same subset lives alongside the writer so tests
// (and poseidon-inspect) can round-trip endpoint output without the pprof
// module.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"time"
)

// --- protobuf writer -------------------------------------------------------

type protoBuf struct{ b []byte }

func (p *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

// uintField emits field num as a varint (wire type 0).
func (p *protoBuf) uintField(num int, v uint64) {
	if v == 0 {
		return
	}
	p.varint(uint64(num)<<3 | 0)
	p.varint(v)
}

func (p *protoBuf) intField(num int, v int64) { p.uintField(num, uint64(v)) }

// bytesField emits field num length-delimited (wire type 2).
func (p *protoBuf) bytesField(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

// packedInts emits a repeated integer field in packed encoding.
func (p *protoBuf) packedInts(num int, vs []int64) {
	if len(vs) == 0 {
		return
	}
	var inner protoBuf
	for _, v := range vs {
		inner.varint(uint64(v))
	}
	p.bytesField(num, inner.b)
}

// msgField emits an embedded message built by fill.
func (p *protoBuf) msgField(num int, fill func(*protoBuf)) {
	var inner protoBuf
	fill(&inner)
	p.bytesField(num, inner.b)
}

// --- profile model ---------------------------------------------------------

// stringTable interns strings into the profile string table (index 0 must
// be the empty string).
type stringTable struct {
	idx map[string]int64
	tab []string
}

func newStringTable() *stringTable {
	return &stringTable{idx: map[string]int64{"": 0}, tab: []string{""}}
}

func (st *stringTable) id(s string) int64 {
	if i, ok := st.idx[s]; ok {
		return i
	}
	i := int64(len(st.tab))
	st.idx[s] = i
	st.tab = append(st.tab, s)
	return i
}

// WritePprof renders the profiler's current sites as an uncompressed
// profile.proto message. Sample values are scaled by the sampling rate so
// pprof reports estimated population totals; when sampling is disabled
// (rate 0, e.g. a recovered-only profile) values pass through unscaled.
//
// Sample types, in order: inuse_objects/count, inuse_space/bytes,
// alloc_objects/count, alloc_space/bytes (inuse_space is the default view —
// live persistent bytes by allocation site). Each sample carries a
// first_epoch numeric label and recovered="true" when the site was restored
// from the persistent side-table.
func (p *Profiler) WritePprof() []byte {
	sites := p.Sites()
	scale := int64(1)
	if r := p.Rate(); r > 1 {
		scale = int64(r)
	}
	st := newStringTable()
	var out protoBuf

	sampleType := func(typ, unit string) func(*protoBuf) {
		t, u := st.id(typ), st.id(unit)
		return func(b *protoBuf) {
			b.intField(1, t)
			b.intField(2, u)
		}
	}
	// String-table ids must be interned before the string table itself is
	// emitted, so build every message first, append field 6 last.
	out.msgField(1, sampleType("inuse_objects", "count"))
	out.msgField(1, sampleType("inuse_space", "bytes"))
	out.msgField(1, sampleType("alloc_objects", "count"))
	out.msgField(1, sampleType("alloc_space", "bytes"))

	firstEpochKey := st.id("first_epoch")
	recoveredKey := st.id("recovered")
	recoveredTrue := st.id("true")

	// One location+function per distinct frame.
	type frameIDs struct{ loc, fn uint64 }
	frames := map[SiteFrame]frameIDs{}
	nextID := uint64(1)
	var locs, funcs []func(*protoBuf)
	frameID := func(f SiteFrame) uint64 {
		if ids, ok := frames[f]; ok {
			return ids.loc
		}
		ids := frameIDs{loc: nextID, fn: nextID}
		nextID++
		frames[f] = ids
		name, file, line := st.id(f.Func), st.id(f.File), int64(f.Line)
		funcs = append(funcs, func(b *protoBuf) {
			b.uintField(1, ids.fn)
			b.intField(2, name)
			b.intField(3, name)
			b.intField(4, file)
		})
		locs = append(locs, func(b *protoBuf) {
			b.uintField(1, ids.loc)
			b.msgField(4, func(l *protoBuf) {
				l.uintField(1, ids.fn)
				l.intField(2, line)
			})
		})
		return ids.loc
	}

	var samples []func(*protoBuf)
	for _, site := range sites {
		site := site
		var locIDs []int64
		for _, f := range site.Frames {
			locIDs = append(locIDs, int64(frameID(f)))
		}
		vals := []int64{
			site.LiveObjects * scale,
			site.LiveBytes * scale,
			int64(site.AllocObjects) * scale,
			int64(site.AllocBytes) * scale,
		}
		samples = append(samples, func(b *protoBuf) {
			b.packedInts(1, locIDs)
			b.packedInts(2, vals)
			b.msgField(3, func(l *protoBuf) {
				l.intField(1, firstEpochKey)
				l.intField(3, int64(site.FirstEpoch))
			})
			if site.Recovered {
				b.msgField(3, func(l *protoBuf) {
					l.intField(1, recoveredKey)
					l.intField(2, recoveredTrue)
				})
			}
		})
	}
	for _, s := range samples {
		out.msgField(2, s)
	}
	for _, l := range locs {
		out.msgField(4, l)
	}
	for _, f := range funcs {
		out.msgField(5, f)
	}

	out.intField(9, time.Now().UnixNano()) // time_nanos
	out.msgField(11, sampleType("space", "bytes"))
	out.intField(12, int64(max(p.Rate(), 1))) // period
	defaultType := st.id("inuse_space")
	out.intField(14, defaultType)

	// string_table (field 6) — now complete.
	var final protoBuf
	final.b = append(final.b, out.b...)
	for _, s := range st.tab {
		final.bytesField(6, []byte(s))
	}
	return final.b
}

// WritePprofGzip renders the profile gzip-compressed, the framing pprof
// endpoints conventionally serve.
func (p *Profiler) WritePprofGzip() ([]byte, error) {
	raw := p.WritePprof()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// --- minimal parser --------------------------------------------------------

// PprofSample is one decoded sample: a resolved frame stack plus the four
// sample-type values in profile order.
type PprofSample struct {
	Frames    []SiteFrame
	Values    []int64
	Labels    map[string]string
	NumLabels map[string]int64
}

// PprofProfile is the decoded subset of a profile.proto message the tests
// and offline tools need.
type PprofProfile struct {
	SampleTypes []string // "type/unit" per sample value
	Samples     []PprofSample
	Period      int64
}

type rawMsg []byte

// walkProto iterates a protobuf message, calling fn per field with the wire
// type and either the varint value or the length-delimited bytes.
func walkProto(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		tag, n := readVarint(b)
		if n == 0 {
			return fmt.Errorf("obs: pprof parse: bad tag varint")
		}
		b = b[n:]
		num, wire := int(tag>>3), int(tag&7)
		switch wire {
		case 0:
			v, n := readVarint(b)
			if n == 0 {
				return fmt.Errorf("obs: pprof parse: bad varint in field %d", num)
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := readVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("obs: pprof parse: bad length in field %d", num)
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("obs: pprof parse: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("obs: pprof parse: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("obs: pprof parse: wire type %d unsupported", wire)
		}
	}
	return nil
}

func readVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7F) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

func readPacked(v uint64, data []byte) []int64 {
	if data == nil {
		return []int64{int64(v)}
	}
	var out []int64
	for len(data) > 0 {
		x, n := readVarint(data)
		if n == 0 {
			break
		}
		out = append(out, int64(x))
		data = data[n:]
	}
	return out
}

// ParsePprof decodes a (possibly gzipped) profile.proto message produced by
// WritePprof — the round-trip half used by tests and poseidon-inspect.
func ParsePprof(b []byte) (*PprofProfile, error) {
	if len(b) >= 2 && b[0] == 0x1f && b[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(zr); err != nil {
			return nil, err
		}
		if err := zr.Close(); err != nil {
			return nil, err
		}
		b = buf.Bytes()
	}

	var strtab []string
	type rawSample struct {
		locIDs []int64
		values []int64
		labels []rawMsg
	}
	var rawSamples []rawSample
	type rawValueType struct{ typ, unit int64 }
	var sampleTypes []rawValueType
	funcs := map[uint64]struct {
		name, file int64
	}{}
	type lineInfo struct {
		fn   uint64
		line int64
	}
	locLines := map[uint64][]lineInfo{}
	prof := &PprofProfile{}

	err := walkProto(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var vt rawValueType
			if err := walkProto(data, func(n, _ int, vv uint64, _ []byte) error {
				if n == 1 {
					vt.typ = int64(vv)
				} else if n == 2 {
					vt.unit = int64(vv)
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			var rs rawSample
			if err := walkProto(data, func(n, _ int, vv uint64, dd []byte) error {
				switch n {
				case 1:
					rs.locIDs = append(rs.locIDs, readPacked(vv, dd)...)
				case 2:
					rs.values = append(rs.values, readPacked(vv, dd)...)
				case 3:
					rs.labels = append(rs.labels, rawMsg(dd))
				}
				return nil
			}); err != nil {
				return err
			}
			rawSamples = append(rawSamples, rs)
		case 4: // location
			var id uint64
			var lines []lineInfo
			if err := walkProto(data, func(n, _ int, vv uint64, dd []byte) error {
				switch n {
				case 1:
					id = vv
				case 4:
					var li lineInfo
					if err := walkProto(dd, func(m, _ int, lv uint64, _ []byte) error {
						if m == 1 {
							li.fn = lv
						} else if m == 2 {
							li.line = int64(lv)
						}
						return nil
					}); err != nil {
						return err
					}
					lines = append(lines, li)
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = lines
		case 5: // function
			var id uint64
			var name, file int64
			if err := walkProto(data, func(n, _ int, vv uint64, _ []byte) error {
				switch n {
				case 1:
					id = vv
				case 2:
					name = int64(vv)
				case 4:
					file = int64(vv)
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = struct{ name, file int64 }{name, file}
		case 6: // string_table
			strtab = append(strtab, string(data))
		case 12:
			prof.Period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strtab)) {
			return ""
		}
		return strtab[i]
	}
	for _, vt := range sampleTypes {
		prof.SampleTypes = append(prof.SampleTypes, str(vt.typ)+"/"+str(vt.unit))
	}
	for _, rs := range rawSamples {
		s := PprofSample{Values: rs.values, Labels: map[string]string{}, NumLabels: map[string]int64{}}
		for _, id := range rs.locIDs {
			for _, li := range locLines[uint64(id)] {
				f := funcs[li.fn]
				s.Frames = append(s.Frames, SiteFrame{Func: str(f.name), File: str(f.file), Line: int(li.line)})
			}
		}
		for _, lm := range rs.labels {
			var key, sv int64
			var nv int64
			var hasNum bool
			if err := walkProto(lm, func(n, _ int, vv uint64, _ []byte) error {
				switch n {
				case 1:
					key = int64(vv)
				case 2:
					sv = int64(vv)
				case 3:
					nv = int64(vv)
					hasNum = true
				}
				return nil
			}); err != nil {
				return nil, err
			}
			if hasNum {
				s.NumLabels[str(key)] = nv
			} else {
				s.Labels[str(key)] = str(sv)
			}
		}
		prof.Samples = append(prof.Samples, s)
	}
	return prof, nil
}
