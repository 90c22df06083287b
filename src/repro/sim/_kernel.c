/*
 * Threshold-family admission kernel: one seed's call-by-call event loop.
 *
 * Built on first use by repro/sim/kernel.py and called through ctypes.  The
 * Python wrapper validates the dtype, length and index range of every array
 * before the call, so the loop below trusts its inputs.  It performs
 * comparisons and integer increments only -- no floating-point arithmetic --
 * so its decisions are those of the reference loop in simulator.py, bit for
 * bit.
 *
 * Route table (CSR):
 *   pair_off[p] .. pair_off[p+1]          candidates of O-D pair p (none: lost)
 *   cand_cum[c]                           cumulative split probability of c
 *   cand_path_off[c] .. cand_path_off[c+1]  paths of c: the primary, then
 *                                         the alternates in trial order
 *   path_link_off[q] .. path_link_off[q+1]  links of path q
 *
 * Thresholds are int32 rows of num_links entries, one block of rows per
 * schedule segment.  With row_stride == 0 every alternate faces row 0 (the
 * per-link thresholds); with row_stride == num_links an alternate of h hops
 * faces row h (the per-hop-length thresholds).  Segment s applies to calls
 * arriving at or after switch_times[s - 1].
 *
 * Departures are walked in presorted order, stable on call index.  Entries
 * j >= num_calls are warm-start calls, each holding one circuit on
 * warm_links[j - num_calls].  A departure whose call has not arrived yet
 * (possible only with a zero holding time) stops the walk: the stable sort
 * has already released every admitted call due at that instant.
 */

#include <stdint.h>

#define KERNEL_OK 0
#define KERNEL_NEGATIVE_OCCUPANCY 1

static int release(int32_t *occupancy, const int32_t *links, int64_t a, int64_t b)
{
    for (int64_t k = a; k < b; ++k) {
        if (--occupancy[links[k]] < 0) {
            return KERNEL_NEGATIVE_OCCUPANCY;
        }
    }
    return KERNEL_OK;
}

static int fits(const int32_t *occupancy, const int32_t *limit,
                const int32_t *links, int64_t a, int64_t b)
{
    for (int64_t k = a; k < b; ++k) {
        int32_t link = links[k];
        if (occupancy[link] >= limit[link]) {
            return 0;
        }
    }
    return 1;
}

int repro_admit(
    int64_t num_calls,
    const double *times,
    const int64_t *od_index,
    const double *uniforms,
    int64_t first_measured,
    int64_t num_deps,
    const int64_t *dep_order,
    const double *dep_times,
    const int32_t *warm_links,
    const int64_t *pair_off,
    const double *cand_cum,
    const int64_t *cand_path_off,
    const int64_t *path_link_off,
    const int32_t *links,
    int64_t num_links,
    const int32_t *capacity,
    int64_t row_stride,
    int64_t rows_per_segment,
    const int32_t *thresholds,
    int64_t num_switches,
    const double *switch_times,
    int32_t *occupancy,
    int32_t *admitted,
    int64_t *blocked,
    int64_t *carried)
{
    int64_t ptr = 0;
    int64_t segment = 0;
    const int32_t *rows = thresholds;

    for (int64_t call = 0; call < num_calls; ++call) {
        const double now = times[call];
        while (ptr < num_deps && dep_times[ptr] <= now) {
            const int64_t j = dep_order[ptr];
            if (j >= call && j < num_calls) {
                break; /* that call's arrival is still ahead */
            }
            ++ptr;
            if (j >= num_calls) {
                if (--occupancy[warm_links[j - num_calls]] < 0) {
                    return KERNEL_NEGATIVE_OCCUPANCY;
                }
            } else if (admitted[j] >= 0) {
                const int32_t path = admitted[j];
                if (release(occupancy, links, path_link_off[path],
                            path_link_off[path + 1]) != KERNEL_OK) {
                    return KERNEL_NEGATIVE_OCCUPANCY;
                }
            }
        }
        while (segment < num_switches && now >= switch_times[segment]) {
            ++segment;
            rows = thresholds + segment * rows_per_segment * num_links;
        }

        const int64_t pair = od_index[call];
        const int counted = call >= first_measured;
        const int64_t first = pair_off[pair];
        const int64_t last = pair_off[pair + 1];
        admitted[call] = -1;
        if (first == last) {
            /* Disconnected pair: the call is necessarily lost. */
            if (counted) {
                ++blocked[pair];
            }
            continue;
        }
        int64_t cand = first;
        if (last - first > 1) {
            const double u = uniforms[call];
            while (cand < last - 1 && u >= cand_cum[cand]) {
                ++cand;
            }
        }

        int64_t path = cand_path_off[cand];
        int64_t a = path_link_off[path];
        int64_t b = path_link_off[path + 1];
        int tier = -1;
        if (fits(occupancy, capacity, links, a, b)) {
            tier = 0;
        } else {
            for (++path; path < cand_path_off[cand + 1]; ++path) {
                a = path_link_off[path];
                b = path_link_off[path + 1];
                if (fits(occupancy, rows + (b - a) * row_stride, links, a, b)) {
                    tier = 1;
                    break;
                }
            }
        }
        if (tier < 0) {
            if (counted) {
                ++blocked[pair];
            }
            continue;
        }
        for (int64_t k = a; k < b; ++k) {
            ++occupancy[links[k]];
        }
        admitted[call] = (int32_t)path;
        if (counted) {
            ++carried[tier];
        }
    }
    return KERNEL_OK;
}
