package plog

import (
	"reflect"
	"strings"
	"testing"
)

func sampleSiteRecords() []SiteRecord {
	return []SiteRecord{
		{
			Hash: 0xDEADBEEFCAFE, LiveObjects: 3, LiveBytes: 384,
			AllocObjects: 5, AllocBytes: 640, FirstEpoch: 1,
			Frames: []SiteFrame{
				{Func: "main.leakA", File: "main.go", Line: 42},
				{Func: "main.run", File: "main.go", Line: 10},
			},
		},
		{
			// Net-negative live counts happen when cross-thread frees outrun
			// the sampled allocs of a site; the codec must round-trip them.
			Hash: 1, LiveObjects: -1, LiveBytes: -128,
			AllocObjects: 2, AllocBytes: 256, FirstEpoch: 7,
			Frames: []SiteFrame{{Func: "pkg.fn", File: "f.go", Line: 1}},
		},
	}
}

func TestSiteCodecRoundTrip(t *testing.T) {
	want := sampleSiteRecords()
	blob, dropped := EncodeSites(7, want, 64<<10)
	if dropped != 0 {
		t.Fatalf("dropped %d records with ample space", dropped)
	}
	epoch, got, err := DecodeSites(blob)
	if err != nil {
		t.Fatalf("DecodeSites: %v", err)
	}
	if epoch != 7 {
		t.Fatalf("epoch = %d, want 7", epoch)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got:  %+v\n want: %+v", got, want)
	}
}

func TestEncodeSitesDropsFromTail(t *testing.T) {
	// Three records; budget sized so only the first fits. The rest are
	// dropped and counted — a bounded arena degrades to top-K, never tears.
	recs := make([]SiteRecord, 3)
	for i := range recs {
		recs[i] = SiteRecord{
			Hash: uint64(i + 1), LiveObjects: 1, LiveBytes: 64,
			AllocObjects: 1, AllocBytes: 64, FirstEpoch: 1,
			Frames: []SiteFrame{{Func: "fn", File: "f.go", Line: uint32(i)}},
		}
	}
	one := siteSize(&recs[0])
	blob, dropped := EncodeSites(1, recs, 16+one)
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	_, got, err := DecodeSites(blob)
	if err != nil {
		t.Fatalf("DecodeSites: %v", err)
	}
	if len(got) != 1 || got[0].Hash != 1 {
		t.Fatalf("kept records = %+v, want just hash 1", got)
	}
	// A budget below the epoch and count words drops everything.
	if blob, dropped := EncodeSites(1, recs, 12); blob != nil || dropped != len(recs) {
		t.Fatalf("tiny budget: blob=%v dropped=%d", blob, dropped)
	}
}

func TestEncodeSitesTruncatesStringsAndFrames(t *testing.T) {
	rec := SiteRecord{Hash: 7, AllocObjects: 1}
	for i := 0; i < siteMaxFrames+4; i++ {
		rec.Frames = append(rec.Frames, SiteFrame{
			Func: strings.Repeat("f", siteMaxStr+100),
			File: "x.go", Line: uint32(i),
		})
	}
	blob, dropped := EncodeSites(1, []SiteRecord{rec}, 64<<10)
	if dropped != 0 {
		t.Fatalf("dropped = %d", dropped)
	}
	_, got, err := DecodeSites(blob)
	if err != nil {
		t.Fatalf("DecodeSites: %v", err)
	}
	if len(got) != 1 || len(got[0].Frames) != siteMaxFrames {
		t.Fatalf("frames = %d, want %d", len(got[0].Frames), siteMaxFrames)
	}
	if len(got[0].Frames[0].Func) != siteMaxStr {
		t.Fatalf("func string = %d bytes, want %d", len(got[0].Frames[0].Func), siteMaxStr)
	}
}

func TestDecodeSitesRejectsCorruption(t *testing.T) {
	blob, _ := EncodeSites(1, sampleSiteRecords(), 64<<10)
	cases := map[string][]byte{
		"empty":      nil,
		"short":      blob[:12],
		"truncated":  blob[:len(blob)-3],
		"huge count": append(append(blob[:8:8], 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F), blob[16:]...),
	}
	for name, b := range cases {
		if _, _, err := DecodeSites(b); err == nil {
			t.Errorf("%s blob decoded without error", name)
		}
	}
}
