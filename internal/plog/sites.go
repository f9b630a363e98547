package plog

// Persistent allocation-site side-table: a compact serialization of the heap
// profiler's site table, kept as a double-buffered record (slots.go) in the
// heap image so a leak profile survives crashes and restarts. The table
// carries no allocator metadata: a torn table only ever resets the profile,
// it can never quarantine a sub-heap or affect allocation correctness.
//
// Payload blob:
//
//	u64 epoch           boot epoch that wrote the snapshot
//	u64 count
//	repeat count times:
//	  u64 hash          symbolized-frame identity hash (restart-stable key)
//	  u64 liveObjects   int64 bit pattern
//	  u64 liveBytes     int64 bit pattern
//	  u64 allocObjects
//	  u64 allocBytes
//	  u64 freeObjects
//	  u64 freeBytes
//	  u64 firstEpoch
//	  u16 frameCount
//	  repeat frameCount times:
//	    u16 len(func) ++ func bytes
//	    u16 len(file) ++ file bytes
//	    u32 line
//
// Frames are stored symbolized (strings, not PCs): raw PCs are meaningless
// after a restart — a recompiled binary reuses the same addresses for
// different code — while function/file/line survive any rebuild that keeps
// the call site.

import (
	"encoding/binary"
	"fmt"
)

const (
	// siteMagic marks a side-table slot ("POSSITE2" little endian).
	siteMagic = 0x3245544953534F50

	// siteMaxFrames bounds the frames persisted per site; deeper stacks
	// are truncated (the leading application frames are what identify a
	// site).
	siteMaxFrames = 8

	// siteMaxStr bounds one persisted function/file string.
	siteMaxStr = 512
)

// SiteTable returns the side-table record filling the arena [base,
// base+size): two line-aligned halves. An arena too small for a snapshot
// yields a record with zero capacity.
func SiteTable(base, size uint64) Slots {
	return Slots{Base: base, Size: size / 2 &^ 63, Magic: siteMagic}
}

// SiteFrame is one symbolized frame of a persisted allocation site.
type SiteFrame struct {
	Func string
	File string
	Line uint32
}

// SiteRecord is one allocation site in a persisted snapshot.
type SiteRecord struct {
	Hash         uint64
	LiveObjects  int64
	LiveBytes    int64
	AllocObjects uint64
	AllocBytes   uint64
	FreeObjects  uint64
	FreeBytes    uint64
	FirstEpoch   uint64
	Frames       []SiteFrame
}

// siteSize returns the encoded byte size of one record.
func siteSize(s *SiteRecord) uint64 {
	n := uint64(8*8 + 2)
	fr := s.Frames
	if len(fr) > siteMaxFrames {
		fr = fr[:siteMaxFrames]
	}
	for _, f := range fr {
		n += 2 + uint64(min(len(f.Func), siteMaxStr))
		n += 2 + uint64(min(len(f.File), siteMaxStr))
		n += 4
	}
	return n
}

// EncodeSites serializes a boot epoch and sites into a payload blob of at
// most maxBytes. Callers pass sites ordered most-important-first (by live
// bytes); records that do not fit are dropped from the tail and counted in
// dropped — a bounded arena degrades to a top-K profile, never to a torn
// one.
func EncodeSites(epoch uint64, sites []SiteRecord, maxBytes uint64) (blob []byte, dropped int) {
	if maxBytes < 16 {
		return nil, len(sites)
	}
	buf := make([]byte, 16, min(maxBytes, 1<<20))
	binary.LittleEndian.PutUint64(buf[0:], epoch)
	count := uint64(0)
	for i := range sites {
		s := &sites[i]
		if uint64(len(buf))+siteSize(s) > maxBytes {
			dropped++
			continue
		}
		var w [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(w[:], v)
			buf = append(buf, w[:]...)
		}
		put(s.Hash)
		put(uint64(s.LiveObjects))
		put(uint64(s.LiveBytes))
		put(s.AllocObjects)
		put(s.AllocBytes)
		put(s.FreeObjects)
		put(s.FreeBytes)
		put(s.FirstEpoch)
		fr := s.Frames
		if len(fr) > siteMaxFrames {
			fr = fr[:siteMaxFrames]
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(fr)))
		for _, f := range fr {
			fn, fl := f.Func, f.File
			if len(fn) > siteMaxStr {
				fn = fn[:siteMaxStr]
			}
			if len(fl) > siteMaxStr {
				fl = fl[:siteMaxStr]
			}
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(fn)))
			buf = append(buf, fn...)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(fl)))
			buf = append(buf, fl...)
			buf = binary.LittleEndian.AppendUint32(buf, f.Line)
		}
		count++
	}
	binary.LittleEndian.PutUint64(buf[8:], count)
	return buf, dropped
}

// DecodeSites parses a payload blob into its boot epoch and sites. The blob
// is checksum-validated before it reaches here, so a decode error indicates
// a codec bug or a checksum collision — it is still reported, never
// panicked on.
func DecodeSites(blob []byte) (epoch uint64, sites []SiteRecord, err error) {
	if len(blob) < 16 {
		return 0, nil, fmt.Errorf("plog: site blob too short (%d bytes)", len(blob))
	}
	count := binary.LittleEndian.Uint64(blob[8:])
	if count > uint64(len(blob))/8 {
		return 0, nil, fmt.Errorf("plog: site blob count %d exceeds blob", count)
	}
	pos := 16
	need := func(n int) bool { return pos+n <= len(blob) }
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(blob[pos:])
		pos += 8
		return v
	}
	out := make([]SiteRecord, 0, count)
	for i := uint64(0); i < count; i++ {
		if !need(8*8 + 2) {
			return 0, nil, fmt.Errorf("plog: site blob truncated at record %d", i)
		}
		var s SiteRecord
		s.Hash = u64()
		s.LiveObjects = int64(u64())
		s.LiveBytes = int64(u64())
		s.AllocObjects = u64()
		s.AllocBytes = u64()
		s.FreeObjects = u64()
		s.FreeBytes = u64()
		s.FirstEpoch = u64()
		nf := int(binary.LittleEndian.Uint16(blob[pos:]))
		pos += 2
		if nf > siteMaxFrames {
			return 0, nil, fmt.Errorf("plog: site record %d frame count %d exceeds max", i, nf)
		}
		for j := 0; j < nf; j++ {
			var fr SiteFrame
			for k := 0; k < 2; k++ {
				if !need(2) {
					return 0, nil, fmt.Errorf("plog: site blob truncated in record %d frames", i)
				}
				l := int(binary.LittleEndian.Uint16(blob[pos:]))
				pos += 2
				if l > siteMaxStr || !need(l) {
					return 0, nil, fmt.Errorf("plog: site record %d frame string overruns blob", i)
				}
				str := string(blob[pos : pos+l])
				pos += l
				if k == 0 {
					fr.Func = str
				} else {
					fr.File = str
				}
			}
			if !need(4) {
				return 0, nil, fmt.Errorf("plog: site blob truncated in record %d frames", i)
			}
			fr.Line = binary.LittleEndian.Uint32(blob[pos:])
			pos += 4
			s.Frames = append(s.Frames, fr)
		}
		out = append(out, s)
	}
	return binary.LittleEndian.Uint64(blob), out, nil
}
