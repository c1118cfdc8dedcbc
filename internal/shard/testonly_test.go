package shard

// Exported functions only this package's tests call.

// ShardOf returns the shard owning id. It inverts Range: for every
// shard s and id in [Range(s)), ShardOf(id) == s.
func (e *Executor) ShardOf(id int) int {
	size, rem := e.n/e.shards, e.n%e.shards
	if id < rem*(size+1) {
		return id / (size + 1)
	}
	if size == 0 {
		return e.shards - 1
	}
	return rem + (id-rem*(size+1))/size
}
