package analysis

import "go/types"

// The production seams more than one analyzer guards, named once. The
// analyzer tests load their fixtures under these same import paths.
const (
	CorePath  = "repro/internal/core"
	TopoPath  = "repro/internal/topology"
	ShardPath = "repro/internal/shard"
	WALPath   = "repro/internal/wal"
)

// LedgerMutators are the *core.Ledger methods that change reservation or
// slot state, and FaultMutators the *topology.Faults methods that change
// the overlay: journalseam confines both to core's apply path, and
// snapshotro keeps them off every lent ledger.
var (
	LedgerMutators = map[string]bool{
		"AddStochastic": true, "RemoveStochastic": true, "AddDet": true,
		"RemoveDet": true, "UseSlots": true, "ReleaseSlots": true,
		"SetOffline": true,
	}
	FaultMutators = map[string]bool{
		"FailMachine": true, "RestoreMachine": true, "FailLink": true,
		"RestoreLink": true,
	}
)

// RouterTables are the shard.Router fields recovery rebuilds from the pod
// WALs: journalseam lets only the shard seam functions write them, and
// snapshotro treats what is read out of them as shared.
var RouterTables = map[string]bool{"jobPods": true, "idem": true}

// IsNamed reports whether t is the named type path.name or a pointer to it.
func IsNamed(t types.Type, path, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}
