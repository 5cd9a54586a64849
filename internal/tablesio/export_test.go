package tablesio

// MmapFastPath reports whether LoadFile maps v2 stores on this host.
var MmapFastPath = mmapSupported && hostLittleEndian
