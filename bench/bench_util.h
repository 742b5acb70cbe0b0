/**
 * @file
 * Shared helpers for the table-reproduction benchmark binaries: each
 * binary prints the paper's reported table side by side with this
 * reproduction's numbers (model or functional measurement) so the
 * shape comparison — who wins, by roughly what factor — is immediate.
 */

#ifndef HEAP_BENCH_BENCH_UTIL_H
#define HEAP_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <string>

#include "common/table.h"

namespace heap::bench {

inline void
banner(const std::string& title, const std::string& detail)
{
    std::printf("\n=== %s ===\n%s\n\n", title.c_str(), detail.c_str());
}

/** "x.xx (paper y.yy)" cell. */
inline std::string
withPaper(double model, double paper, int precision = 3)
{
    return Table::num(model, precision) + " (paper "
           + Table::num(paper, precision) + ")";
}

} // namespace heap::bench

#endif // HEAP_BENCH_BENCH_UTIL_H
