#include "graph/operator.h"

#include "common/error.h"

namespace regate {
namespace graph {

double
Operator::macs() const
{
    if (kind != OpKind::MatMul)
        return 0.0;
    return static_cast<double>(batch) * static_cast<double>(m) *
           static_cast<double>(k) * static_cast<double>(n);
}

double
Operator::flops() const
{
    return kind == OpKind::MatMul ? 2.0 * macs() : vuOps;
}

void
Operator::validate() const
{
    if (kind == OpKind::MatMul) {
        REGATE_CHECK(batch >= 1 && m >= 1 && k >= 1 && n >= 1,
                     "MatMul '", name, "' has degenerate dims ", batch,
                     "x[", m, ",", k, ",", n, "]");
    }
    if (kind == OpKind::Collective) {
        REGATE_CHECK(coll != CollKind::None, "collective '", name,
                     "' missing kind");
        REGATE_CHECK(collBytes > 0, "collective '", name,
                     "' moves no bytes");
    }
    if (kind == OpKind::Embedding) {
        REGATE_CHECK(lookups > 0 && bytesPerLookup > 0, "embedding '",
                     name, "' has no lookups");
    }
    REGATE_CHECK(hbmReadBytes >= 0 && hbmWriteBytes >= 0 && vuOps >= 0,
                 "operator '", name, "' has negative work");
}

}  // namespace graph
}  // namespace regate
