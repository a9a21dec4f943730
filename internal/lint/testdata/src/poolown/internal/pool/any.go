package pool

// GetReleasable is a getter whose result is an interface, so a type switch
// can take it apart.
func GetReleasable() Releasable {
	return iterPool.Get().(*Iter)
}
