/**
 * @file
 * The one-sequence memoization engine, memo::MemoEngine: a one-slot
 * memo::BatchMemoEngine (memo/memo_batch.hh, where both are declared)
 * that RnnNetwork::forward steps one sequence at a time.
 */

#ifndef NLFM_MEMO_MEMO_ENGINE_HH
#define NLFM_MEMO_MEMO_ENGINE_HH

#include "memo/memo_batch.hh"

#endif // NLFM_MEMO_MEMO_ENGINE_HH
