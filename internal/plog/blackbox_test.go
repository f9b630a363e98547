package plog

import (
	"strings"
	"testing"
)

func TestBoxRecordRoundTrip(t *testing.T) {
	r := BoxRecord{
		Seq: 41, Type: BoxEvent, Kind: 7, Subheap: -1, Lane: 3,
		WallNS: 1234567890, DurNS: 55, Aux0: 2, Aux1: 9,
		Detail: "sub-heap 3 quarantined",
	}
	buf := EncodeBoxRecord(r)
	got, ok := DecodeBoxRecord(buf[:])
	if !ok {
		t.Fatal("round-trip record failed to decode")
	}
	if got != r {
		t.Fatalf("round trip = %+v, want %+v", got, r)
	}
}

func TestBoxRecordDetailTruncation(t *testing.T) {
	long := strings.Repeat("x", 3*BoxDetailCap)
	buf := EncodeBoxRecord(BoxRecord{Seq: 1, Type: BoxSpan, Detail: long})
	got, ok := DecodeBoxRecord(buf[:])
	if !ok {
		t.Fatal("truncated record failed to decode")
	}
	if got.Detail != long[:BoxDetailCap] {
		t.Fatalf("detail = %q (len %d), want %d-byte prefix", got.Detail, len(got.Detail), BoxDetailCap)
	}
}

func TestBoxRecordRejectsCorruption(t *testing.T) {
	buf := EncodeBoxRecord(BoxRecord{Seq: 9, Type: BoxEvent, Kind: 1, Detail: "ok"})
	for off := 0; off < BoxRecordSize; off++ {
		bad := buf
		bad[off] ^= 0x40
		if _, ok := DecodeBoxRecord(bad[:]); ok {
			t.Fatalf("single-byte corruption at offset %d went undetected", off)
		}
	}
	var blank [BoxRecordSize]byte
	if _, ok := DecodeBoxRecord(blank[:]); ok {
		t.Fatal("blank slot decoded as a record")
	}
}

func TestBoxChecksumDependsOnSeqAndPayload(t *testing.T) {
	payload := []byte("some black-box record bytes")
	base := boxChecksum(5, payload)
	if boxChecksum(6, payload) == base {
		t.Fatal("checksum ignores the sequence number")
	}
	flipped := append([]byte(nil), payload...)
	flipped[3] ^= 0x01
	if boxChecksum(5, flipped) == base {
		t.Fatal("checksum ignores a payload bit flip")
	}
	if boxChecksum(5, payload) != base {
		t.Fatal("checksum not deterministic")
	}
}

func TestBoxArenaGeometry(t *testing.T) {
	a := NewBoxArena(4096, 64<<10)
	if !a.Valid() {
		t.Fatal("64 KiB arena should be valid")
	}
	wantCap := uint64((64<<10 - 2*boxHeaderSize) / BoxRecordSize)
	if a.Capacity() != wantCap {
		t.Fatalf("capacity = %d, want %d", a.Capacity(), wantCap)
	}
	if a.Header().Off(1) != 4096+boxHeaderSize || a.RecordsOff() != 4096+2*boxHeaderSize {
		t.Fatalf("header slot 1 at %d, records at %d", a.Header().Off(1), a.RecordsOff())
	}
	if a.SlotOff(wantCap+3) != a.RecordsOff()+3*BoxRecordSize {
		t.Fatalf("slot wrap: seq %d at %d", wantCap+3, a.SlotOff(wantCap+3))
	}
	if NewBoxArena(0, 0).Valid() {
		t.Fatal("zero arena must be invalid")
	}
}

func TestReplayBoxWrapAndTorn(t *testing.T) {
	const capRecords = 8
	region := make([]byte, capRecords*BoxRecordSize)
	write := func(seq uint64) {
		buf := EncodeBoxRecord(BoxRecord{Seq: seq, Type: BoxEvent, Kind: 2, Subheap: int32(seq)})
		copy(region[(seq%capRecords)*BoxRecordSize:], buf[:])
	}
	// 13 records into an 8-slot ring: slots hold seqs 5..12.
	for seq := uint64(0); seq < 13; seq++ {
		write(seq)
	}
	records, torn := ReplayBox(region, capRecords)
	if torn != 0 {
		t.Fatalf("torn = %d on a clean ring", torn)
	}
	if len(records) != capRecords {
		t.Fatalf("replayed %d records, want %d", len(records), capRecords)
	}
	for i, r := range records {
		if r.Seq != uint64(5+i) {
			t.Fatalf("record %d seq = %d, want %d", i, r.Seq, 5+i)
		}
	}

	// Tear the newest record mid-slot: it drops, everything else survives.
	region[(12%capRecords)*BoxRecordSize+70] ^= 0x01
	records, torn = ReplayBox(region, capRecords)
	if torn != 1 {
		t.Fatalf("torn = %d, want 1", torn)
	}
	if len(records) != capRecords-1 || records[len(records)-1].Seq != 11 {
		t.Fatalf("post-tear replay = %d records, last %+v", len(records), records[len(records)-1])
	}
}
