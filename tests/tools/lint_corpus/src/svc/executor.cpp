// Fixture: src/svc/executor.cpp is the one path exempt from raw-thread —
// the real executor queries std::thread::hardware_concurrency() and forks
// a batch's threads.
int executor_exempt() {
  return static_cast<int>(std::thread::hardware_concurrency());
}
