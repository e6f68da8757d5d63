package archive

// OpenFS is Open over a caller-chosen filesystem, for the external tests
// that put a waltest.FS under an archive.
var OpenFS = open
