package mpk

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"poseidon/internal/nvm"
)

func newUnitDev(t *testing.T, pages uint64) (*Unit, *nvm.Device) {
	t.Helper()
	d, err := nvm.NewDevice(nvm.Options{Capacity: pages * nvm.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	return NewUnit(d.Capacity()), d
}

// mustFault runs fn expecting a protection fault and returns it.
func mustFault(t *testing.T, fn func()) *ProtectionError {
	t.Helper()
	var fault *ProtectionError
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			pe, ok := r.(*ProtectionError)
			if !ok {
				panic(r)
			}
			fault = pe
		}()
		fn()
	}()
	if fault == nil {
		t.Fatal("expected a protection fault, got none")
	}
	return fault
}

func TestAssignRangeValidation(t *testing.T) {
	u, _ := newUnitDev(t, 16*1024) // one chunk worth of pages
	tests := []struct {
		name    string
		off, n  uint64
		k       Key
		wantErr bool
	}{
		{"aligned", 0, nvm.PageSize, 1, false},
		{"multi-page", nvm.PageSize, 4 * nvm.PageSize, 2, false},
		{"unaligned offset", 100, nvm.PageSize, 1, true},
		{"unaligned length", 0, 100, 1, true},
		{"zero length", 0, 0, 1, true},
		{"key too large", 0, nvm.PageSize, 16, true},
		{"beyond unit", (16*1024 - 1) * nvm.PageSize, 2 * nvm.PageSize, 1, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := u.AssignRange(tt.off, tt.n, tt.k)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestKeyAt(t *testing.T) {
	u, _ := newUnitDev(t, 1024)
	if err := u.AssignRange(2*nvm.PageSize, 3*nvm.PageSize, 5); err != nil {
		t.Fatal(err)
	}
	if k := u.KeyAt(0); k != 0 {
		t.Fatalf("page 0 key = %d", k)
	}
	if k := u.KeyAt(2*nvm.PageSize + 17); k != 5 {
		t.Fatalf("tagged page key = %d, want 5", k)
	}
	if k := u.KeyAt(5 * nvm.PageSize); k != 0 {
		t.Fatalf("page after range key = %d", k)
	}
}

func TestWriteDeniedOnWriteDisabledKey(t *testing.T) {
	u, d := newUnitDev(t, 1024)
	if err := u.AssignRange(0, nvm.PageSize, 1); err != nil {
		t.Fatal(err)
	}
	th := u.NewThread(RightsRO) // every non-zero key read-only
	w := NewWindow(d, th)

	fault := mustFault(t, func() { _ = w.WriteU64(64, 42) })
	if fault.Op != "store" || fault.Key != 1 {
		t.Fatalf("fault = %+v", fault)
	}
	if !strings.Contains(fault.Error(), "protection fault") {
		t.Fatalf("error text: %v", fault)
	}
	// Reads still work.
	if _, err := w.ReadU64(64); err != nil {
		t.Fatalf("read on RO page: %v", err)
	}
	// Pages outside the protected range (key 0) remain writable.
	if err := w.WriteU64(nvm.PageSize+8, 42); err != nil {
		t.Fatalf("write on key-0 page: %v", err)
	}
}

func TestGrantRevokeCycle(t *testing.T) {
	u, d := newUnitDev(t, 1024)
	if err := u.AssignRange(0, nvm.PageSize, 1); err != nil {
		t.Fatal(err)
	}
	th := u.NewThread(RightsRO)
	w := NewWindow(d, th)

	th.SetRights(1, RightsRW)
	if err := w.WriteU64(0, 7); err != nil {
		t.Fatalf("write after grant: %v", err)
	}
	th.SetRights(1, RightsRO)
	mustFault(t, func() { _ = w.WriteU64(0, 8) })
	if v, _ := w.ReadU64(0); v != 7 {
		t.Fatalf("value = %d, want 7", v)
	}
	if got := u.Switches(); got != 2 {
		t.Fatalf("switches = %d, want 2", got)
	}
}

func TestRightsArePerThread(t *testing.T) {
	u, d := newUnitDev(t, 1024)
	if err := u.AssignRange(0, nvm.PageSize, 1); err != nil {
		t.Fatal(err)
	}
	privileged := u.NewThread(RightsRO)
	privileged.SetRights(1, RightsRW)
	other := u.NewThread(RightsRO)

	if err := NewWindow(d, privileged).WriteU64(0, 1); err != nil {
		t.Fatal(err)
	}
	// The grant on `privileged` must not leak to `other`.
	mustFault(t, func() { _ = NewWindow(d, other).WriteU64(0, 2) })
}

func TestAccessDisableBlocksLoads(t *testing.T) {
	u, d := newUnitDev(t, 1024)
	if err := u.AssignRange(0, nvm.PageSize, 3); err != nil {
		t.Fatal(err)
	}
	th := u.NewThread(RightsRW)
	th.SetRights(3, RightsNone)
	w := NewWindow(d, th)
	fault := mustFault(t, func() { _, _ = w.ReadU64(8) })
	if fault.Op != "load" || fault.Key != 3 {
		t.Fatalf("fault = %+v", fault)
	}
}

func TestStoreSpanningIntoProtectedPageFaults(t *testing.T) {
	u, d := newUnitDev(t, 1024)
	if err := u.AssignRange(nvm.PageSize, nvm.PageSize, 1); err != nil {
		t.Fatal(err)
	}
	th := u.NewThread(RightsRO)
	w := NewWindow(d, th)
	// A write starting on a writable page that overflows into a protected
	// one must fault: this is exactly the heap-overflow-into-metadata case.
	buf := make([]byte, 128)
	mustFault(t, func() { _ = w.Write(nvm.PageSize-64, buf) })
	// Same store fully inside the writable page is fine.
	if err := w.Write(nvm.PageSize-128, buf); err != nil {
		t.Fatal(err)
	}
}

func TestZeroLengthAccessesNeverFault(t *testing.T) {
	u, d := newUnitDev(t, 1024)
	if err := u.AssignRange(0, nvm.PageSize, 1); err != nil {
		t.Fatal(err)
	}
	th := u.NewThread(RightsNone)
	w := NewWindow(d, th)
	if err := w.Write(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Read(0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWindowPassthroughScalars(t *testing.T) {
	u, d := newUnitDev(t, 1024)
	th := u.NewThread(RightsRW)
	w := NewWindow(d, th)
	if err := w.WriteU32(0, 0xAABBCCDD); err != nil {
		t.Fatal(err)
	}
	if v, _ := w.ReadU32(0); v != 0xAABBCCDD {
		t.Fatalf("u32 = %#x", v)
	}
	if err := w.WriteU16(8, 0x1234); err != nil {
		t.Fatal(err)
	}
	if v, _ := w.ReadU16(8); v != 0x1234 {
		t.Fatalf("u16 = %#x", v)
	}
	if err := w.WriteU8(12, 9); err != nil {
		t.Fatal(err)
	}
	if v, _ := w.ReadU8(12); v != 9 {
		t.Fatalf("u8 = %d", v)
	}
	if err := w.Persist(16, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.PersistU64(24, 11); err != nil {
		t.Fatal(err)
	}
	if err := w.Zero(16, 16); err != nil {
		t.Fatal(err)
	}
	if v, _ := w.ReadU64(24); v != 0 {
		t.Fatalf("zeroed u64 = %d", v)
	}
}

func TestFlushAllowedOnReadOnlyPages(t *testing.T) {
	u, d := newUnitDev(t, 1024)
	if err := u.AssignRange(0, nvm.PageSize, 1); err != nil {
		t.Fatal(err)
	}
	th := u.NewThread(RightsRO)
	w := NewWindow(d, th)
	if err := w.Flush(0, 64); err != nil {
		t.Fatal(err)
	}
	w.Fence()
}

func TestSwitchCostCharged(t *testing.T) {
	u, _ := newUnitDev(t, 16)
	u.SetSwitchCost(1000)
	th := u.NewThread(RightsRW)
	th.SetRights(1, RightsRO)
	th.SetRights(1, RightsRW)
	if got := u.Switches(); got != 2 {
		t.Fatalf("switches = %d, want 2", got)
	}
}

// TestConcurrentSwitchesExact: threads switching at once charge their own
// counter stripes (more threads than stripes, so some share one), and
// Switches sums them to the exact count, for plain WRPKRUs and for a
// sealed unit's Authority alike.
func TestConcurrentSwitchesExact(t *testing.T) {
	const n, k = switchStripes + 8, 500
	for _, sealed := range []bool{false, true} {
		u, _ := newUnitDev(t, 16)
		set := func(th *Thread, r Rights) { th.SetRights(1, r) }
		if sealed {
			auth, err := u.Seal()
			if err != nil {
				t.Fatal(err)
			}
			set = func(th *Thread, r Rights) { auth.SetRights(th, 1, r) }
		}
		var wg sync.WaitGroup
		for range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := u.NewThread(RightsRO)
				for range k {
					set(th, RightsRW)
					set(th, RightsRO)
				}
			}()
		}
		wg.Wait()
		if got := u.Switches(); got != 2*n*k {
			t.Fatalf("sealed=%v: switches = %d, want %d", sealed, got, 2*n*k)
		}
	}
}

func TestRightsString(t *testing.T) {
	tests := []struct {
		r    Rights
		want string
	}{
		{RightsRW, "rw"},
		{RightsRO, "ro"},
		{RightsNone, "none"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.r, got, tt.want)
		}
	}
}

func TestProtectionErrorIsNotWrapped(t *testing.T) {
	// ProtectionError is delivered by panic, not by error return; confirm
	// the regular error paths stay clean.
	u, d := newUnitDev(t, 16)
	th := u.NewThread(RightsRW)
	w := NewWindow(d, th)
	err := w.Write(d.Capacity(), []byte{1})
	if !errors.Is(err, nvm.ErrOutOfRange) {
		t.Fatalf("out-of-range write err = %v", err)
	}
}
