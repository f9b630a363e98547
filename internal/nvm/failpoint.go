package nvm

import (
	"errors"
	"sync/atomic"
)

// ErrDeviceFailed reports that the armed failpoint has triggered: the
// simulated machine is "dying" and refuses further stores. Tests follow it
// with Crash and a fresh load to exercise recovery from mid-operation
// failures.
var ErrDeviceFailed = errors.New("nvm: device failed (failpoint)")

// FailAfter arms a failpoint: the next n mutating operations (writes,
// zeroes, flushes) succeed, then every subsequent one fails with
// ErrDeviceFailed until DisarmFailpoint. Together with Crash this lets a
// test stop an allocator at every interior persist point of an operation.
func (d *Device) FailAfter(n int64) {
	d.failBudget.Store(n)
	d.failArmed.Store(true)
}

// DisarmFailpoint returns the device to normal operation.
func (d *Device) DisarmFailpoint() {
	d.failArmed.Store(false)
}

// FailBudgetRemaining returns the unconsumed failpoint budget. Arming with a
// huge budget, running a workload, and subtracting the remainder measures
// exactly how many mutating device operations the workload performs — the
// crash-point count torture sweeps enumerate. Negative values mean the
// budget was exhausted and operations have been failing.
func (d *Device) FailBudgetRemaining() int64 {
	return d.failBudget.Load()
}

// failing reports (and consumes) one unit of the armed failpoint budget.
func (d *Device) failing() bool {
	if !d.failArmed.Load() {
		return false
	}
	return d.failBudget.Add(-1) < 0
}

// failpoint state lives here to keep the hot-path struct layout in nvm.go
// stable; the fields are declared on Device below via an embedded struct.
type failpointState struct {
	failArmed  atomic.Bool
	failBudget atomic.Int64
}
