package reqscan

import "strconv"

// FilterTwin returns a key that is not name but has name's filter bit.
func FilterTwin(name string) string {
	want := keyHash([]byte(name))
	for i := 0; ; i++ {
		twin := "router.f" + strconv.Itoa(i)
		if twin != name && keyHash([]byte(twin)) == want {
			return twin
		}
	}
}

// Passes reports whether key's bit is set in k's filter.
func (k *Keys) Passes(key string) bool {
	h := keyHash([]byte(key))
	return k.filter[h/64]&(1<<(h%64)) != 0
}
