// Fixture: a member declared in an OrderedMutex's contiguous run with no
// MUSK_GUARDED_BY annotation — either it is guarded (annotate it) or it
// is not (move it out of the run, past a blank line).
#pragma once

class UnguardedMemberBad {
 private:
  musketeer::util::OrderedMutex mutex_{musketeer::util::LockRank::kBidQueue,
                                       "fixture"};
  int counter_ = 0;
};
