// Fixture: raw rename/unlink outside src/svc/{file_io,snapshot}.cpp — the
// caller is either skipping the durable-publication protocol or
// ignoring the return code.
void unchecked_rename_bad(const char* from, const char* to) {
  ::rename(from, to);
  ::unlink(from);
  std::rename(from, to);
  unlink(to);
}
