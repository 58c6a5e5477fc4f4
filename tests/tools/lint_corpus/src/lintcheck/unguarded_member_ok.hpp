// Fixture: every member in the mutex's run is annotated (including one
// spanning two lines) or exempt (condvar, atomic, jthread); state the
// mutex does not guard sits after the blank line that ends the run.
#pragma once

class UnguardedMemberOk {
 private:
  musketeer::util::OrderedMutex mutex_{musketeer::util::LockRank::kBidQueue,
                                       "fixture"};
  int counter_ MUSK_GUARDED_BY(mutex_) = 0;
  std::vector<int> pending_
      MUSK_GUARDED_BY(mutex_);
  musketeer::util::OrderedCondVar cv_;
  std::atomic<bool> stop_{false};
  std::jthread worker_;

  int scratch_ = 0;
};
