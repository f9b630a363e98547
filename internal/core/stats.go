package core

import "sync/atomic"

// subheapStats are per-sub-heap operation counters (atomic so cross-thread
// frees and the aggregating reader need no extra locking).
type subheapStats struct {
	allocs          atomic.Uint64
	txAllocs        atomic.Uint64
	frees           atomic.Uint64
	defragMerges    atomic.Uint64
	invalidFrees    atomic.Uint64
	doubleFrees     atomic.Uint64
	recoveredBlocks atomic.Uint64
	recoveredNoops  atomic.Uint64
	magazineHits    atomic.Uint64
	magazineMisses  atomic.Uint64
	magazineRefills atomic.Uint64
	magazineFlushes atomic.Uint64
	recoveredCached atomic.Uint64
}

// HeapStats is an aggregated snapshot of allocator activity.
type HeapStats struct {
	Allocs              uint64 // singleton allocations served
	TxAllocs            uint64 // transactional allocations served
	Frees               uint64 // frees accepted
	DefragMerges        uint64 // buddy merges performed by defragmentation
	InvalidFrees        uint64 // frees rejected: address not a block
	DoubleFrees         uint64 // frees rejected: block already free
	RecoveredBlocks     uint64 // uncommitted tx allocations freed at recovery
	RecoveredNoops      uint64 // rollback entries whose block was already free or unknown
	RemoteFrees         uint64 // always 0: the remote-free ring path it counted was removed; kept for existing readers
	MagazineHits        uint64 // allocs/frees served lock-free from a thread magazine
	MagazineMisses      uint64 // magazine-eligible ops that fell back to the locked path
	MagazineRefills     uint64 // batched magazine refill transactions
	MagazineFlushes     uint64 // batched magazine flush-back transactions
	RecoveredCached     uint64 // magazine-cached blocks returned to free lists at recovery
	CombinedOps         uint64 // always 0: the group-commit path it counted was removed; kept for existing readers
	PermissionSwitches  uint64 // WRPKRU executions (2 per guarded operation)
	QuarantinedSubheaps uint64 // sub-heaps recovery took out of service
	QuarantinedBytes    uint64 // user capacity lost to quarantine
	TransientRetries    uint64 // device I/O retries that survived ErrTransient
	RepairedSubheaps    uint64 // quarantined sub-heaps returned to service by Repair
	RepairedBytes       uint64 // user capacity returned to service by Repair
	MirrorRestores      uint64 // repairs whose header came back from the metadata mirror
	Commits             uint64 // commit records written by the sub-heaps
	CommitBytes         uint64 // payload bytes of those records
}
