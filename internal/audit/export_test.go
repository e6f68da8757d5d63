package audit

// OpenJournalFS is OpenJournal over a caller-chosen filesystem, for the
// external tests that put a waltest.FS under a coordinator's journal.
var OpenJournalFS = openJournal
