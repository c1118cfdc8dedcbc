package stable

// Exported functions only this package's tests call.

// VectorBits returns the coded vector length Blocks + Payload.
func (g Geometry) VectorBits() int { return g.Blocks + g.Payload }
