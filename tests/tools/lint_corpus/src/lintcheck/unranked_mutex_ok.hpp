// Fixture: the sanctioned spelling — a ranked OrderedMutex with its
// guarded state annotated, and an OrderedCondVar for waits.
#pragma once

class UnrankedMutexOk {
 private:
  musketeer::util::OrderedMutex mu_{musketeer::util::LockRank::kBidQueue,
                                    "fixture"};
  int value_ MUSK_GUARDED_BY(mu_) = 0;
  musketeer::util::OrderedCondVar cv_;
};
