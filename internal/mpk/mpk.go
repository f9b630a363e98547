// Package mpk models Intel Memory Protection Keys (MPK / protection keys for
// userspace), the hardware mechanism Poseidon uses to guard its heap
// metadata.
//
// The model mirrors the architecture:
//
//   - Every 4 KiB page of the device is tagged with one of 16 protection
//     keys (in hardware the key lives in the page-table entry).
//   - Every thread owns a PKRU register holding access-disable (AD) and
//     write-disable (WD) bits per key. WRPKRU swaps the whole register in
//     ~23 cycles, without kernel involvement, and affects only the executing
//     thread.
//   - A store to a page whose key is write-disabled in the executing
//     thread's PKRU faults (SIGSEGV). Here the fault is a panic carrying a
//     *ProtectionError, which tests and demos recover and inspect.
//
// The per-switch cost is modeled by a configurable calibrated spin so that
// benchmarks can contrast MPK-style protection (cheap, default) with
// mprotect-style protection (a syscall, ~3 orders of magnitude slower).
package mpk

import (
	"errors"
	"fmt"
	"sync/atomic"

	"poseidon/internal/nvm"
)

// NumKeys is the number of protection keys the hardware provides.
const NumKeys = 16

// Key identifies one of the 16 protection domains.
type Key uint8

// Rights are the per-key bits held in a thread's PKRU register.
type Rights uint8

// PKRU bit layout per key (matches the hardware encoding).
const (
	// AccessDisable (AD) forbids any access to pages with the key.
	AccessDisable Rights = 1 << 0
	// WriteDisable (WD) forbids stores to pages with the key.
	WriteDisable Rights = 1 << 1

	// RightsRW allows loads and stores.
	RightsRW Rights = 0
	// RightsRO allows loads only.
	RightsRO = WriteDisable
	// RightsNone forbids all access.
	RightsNone = AccessDisable | WriteDisable
)

func (r Rights) String() string {
	switch r {
	case RightsRW:
		return "rw"
	case RightsRO:
		return "ro"
	case RightsNone:
		return "none"
	default:
		return fmt.Sprintf("rights(%d)", uint8(r))
	}
}

// ErrBadRange reports a key assignment that is not page aligned or out of
// range.
var ErrBadRange = errors.New("mpk: key assignment must cover whole pages inside the unit")

// ProtectionError is the simulated protection fault (SIGSEGV with
// si_code=SEGV_PKUERR). Window accessors panic with it when a thread
// violates its PKRU; tests recover it.
type ProtectionError struct {
	Op     string // "store" or "load"
	Offset uint64 // device offset of the faulting access
	Key    Key    // key of the page
	Rights Rights // rights the thread held for that key
}

func (e *ProtectionError) Error() string {
	return fmt.Sprintf("mpk: protection fault: %s at offset %#x denied (key %d is %s)",
		e.Op, e.Offset, e.Key, e.Rights)
}

// Unit is the protection state of one device: the per-page key tags plus the
// modeled WRPKRU cost. Key tags change only through AssignRange, which
// requires external synchronisation against concurrent accesses to the same
// pages (the allocator tags pages before publishing them, as real code must).
type Unit struct {
	pageKeys   []Key
	switchSpin int  // busy iterations per WRPKRU, modeling its cost
	sealed     bool // ERIM/Hodor-style inspection: only the Authority switches

	// switches counts WRPKRU executions, striped so that threads switching
	// concurrently do not contend on one cache line: each Thread charges
	// the stripe NewThread gave it, round-robin, and Switches sums them.
	switches   [switchStripes]switchStripe
	nextStripe atomic.Uint32
}

// switchStripes is the number of switch-counter stripes per unit.
const switchStripes = 32

// switchStripe is one switch counter, padded to its own pair of cache
// lines (adjacent-line prefetch pulls lines in pairs).
type switchStripe struct {
	n atomic.Uint64
	_ [120]byte
}

// NewUnit creates the protection state for a device of the given capacity.
// All pages start tagged with key 0.
func NewUnit(capacity uint64) *Unit {
	pages := (capacity + nvm.PageSize - 1) / nvm.PageSize
	return &Unit{pageKeys: make([]Key, pages)}
}

// SetSwitchCost sets the number of busy iterations charged per WRPKRU. Zero
// (the default) models the instruction as free; benchmarks calibrate it to
// model MPK (~23 cycles) or mprotect (~a syscall).
func (u *Unit) SetSwitchCost(iterations int) { u.switchSpin = iterations }

// Switches returns how many WRPKRU executions have occurred on this unit.
func (u *Unit) Switches() uint64 {
	var n uint64
	for i := range u.switches {
		n += u.switches[i].n.Load()
	}
	return n
}

// AssignRange tags every page in [off, off+n) with key k. The range must be
// page aligned and within the unit.
func (u *Unit) AssignRange(off, n uint64, k Key) error {
	if k >= NumKeys {
		return fmt.Errorf("mpk: key %d out of range", k)
	}
	if off%nvm.PageSize != 0 || n%nvm.PageSize != 0 || n == 0 {
		return fmt.Errorf("%w: off=%#x len=%#x", ErrBadRange, off, n)
	}
	first := off / nvm.PageSize
	last := (off + n) / nvm.PageSize
	if last > uint64(len(u.pageKeys)) {
		return fmt.Errorf("%w: off=%#x len=%#x beyond unit", ErrBadRange, off, n)
	}
	for p := first; p < last; p++ {
		u.pageKeys[p] = k
	}
	return nil
}

// KeyAt returns the protection key of the page containing off.
func (u *Unit) KeyAt(off uint64) Key {
	p := off / nvm.PageSize
	if p >= uint64(len(u.pageKeys)) {
		return 0
	}
	return u.pageKeys[p]
}

// SwitchViolationError is the simulated consequence of an unauthorized
// WRPKRU on a sealed unit: with ERIM/Hodor-style binary inspection (the
// §8 mitigation), no unvetted WRPKRU exists in the executable, so a
// hijacked control flow attempting one traps instead of succeeding.
type SwitchViolationError struct{ Key Key }

func (e *SwitchViolationError) Error() string {
	return fmt.Sprintf("mpk: unauthorized WRPKRU (key %d) on a sealed unit", e.Key)
}

// Authority is the capability to change PKRU rights on a sealed unit —
// the stand-in for "a vetted WRPKRU call site" under binary inspection.
// Only code holding the Authority (the allocator's entry/exit paths) can
// switch permissions; everything else faults.
type Authority struct{ unit *Unit }

// Seal locks the unit: from now on only the returned Authority can change
// thread rights. Sealing twice is an error (there is one inspection pass).
func (u *Unit) Seal() (*Authority, error) {
	if u.sealed {
		return nil, errors.New("mpk: unit already sealed")
	}
	u.sealed = true
	return &Authority{unit: u}, nil
}

// SetRights performs an authorized WRPKRU on a sealed unit.
func (a *Authority) SetRights(t *Thread, k Key, r Rights) {
	t.chargeSwitch()
	t.pkru[k] = r
}

// spinSink defeats dead-code elimination of the calibrated spin.
var spinSink atomic.Uint64

func (t *Thread) chargeSwitch() {
	t.switches.Add(1)
	s := uint64(0)
	for i := 0; i < t.unit.switchSpin; i++ {
		s += uint64(i) ^ (s << 1)
	}
	if t.unit.switchSpin > 0 {
		spinSink.Store(s)
	}
}

// Thread is one hardware thread's view of the unit: its PKRU register.
// A Thread must not be shared between goroutines (PKRU is core-local state;
// sharing one would be the same bug as sharing a CPU register).
type Thread struct {
	unit     *Unit
	switches *atomic.Uint64 // this thread's stripe of unit.switches
	pkru     [NumKeys]Rights
}

// NewThread creates a thread with the given initial rights applied to every
// key (hardware resets PKRU to all-rights-granted; a hardened runtime starts
// with the metadata key write-disabled).
func (u *Unit) NewThread(initial Rights) *Thread {
	stripe := &u.switches[(u.nextStripe.Add(1)-1)%switchStripes]
	t := &Thread{unit: u, switches: &stripe.n}
	for k := range t.pkru {
		t.pkru[k] = initial
	}
	t.pkru[0] = RightsRW // key 0 is conventionally the default, always usable
	return t
}

// SetRights executes a WRPKRU that updates the rights of one key on this
// thread only. On a sealed unit it panics with *SwitchViolationError: the
// inspected binary contains no unvetted WRPKRU, so the attempt traps.
func (t *Thread) SetRights(k Key, r Rights) {
	if t.unit.sealed {
		panic(&SwitchViolationError{Key: k})
	}
	t.chargeSwitch()
	t.pkru[k] = r
}

// Rights returns this thread's rights for key k (RDPKRU).
func (t *Thread) Rights(k Key) Rights { return t.pkru[k] }

// checkStore validates a store of n bytes at off against the PKRU,
// returning a fault descriptor if any covered page denies writes.
func (t *Thread) checkStore(off, n uint64) *ProtectionError {
	if n == 0 {
		return nil
	}
	first := off / nvm.PageSize
	last := (off + n - 1) / nvm.PageSize
	for p := first; p <= last; p++ {
		var k Key
		if p < uint64(len(t.unit.pageKeys)) {
			k = t.unit.pageKeys[p]
		}
		if r := t.pkru[k]; r&(WriteDisable|AccessDisable) != 0 {
			return &ProtectionError{Op: "store", Offset: p * nvm.PageSize, Key: k, Rights: r}
		}
	}
	return nil
}

// checkLoad validates a load of n bytes at off against the PKRU.
func (t *Thread) checkLoad(off, n uint64) *ProtectionError {
	if n == 0 {
		return nil
	}
	first := off / nvm.PageSize
	last := (off + n - 1) / nvm.PageSize
	for p := first; p <= last; p++ {
		var k Key
		if p < uint64(len(t.unit.pageKeys)) {
			k = t.unit.pageKeys[p]
		}
		if r := t.pkru[k]; r&AccessDisable != 0 {
			return &ProtectionError{Op: "load", Offset: p * nvm.PageSize, Key: k, Rights: r}
		}
	}
	return nil
}
