#include "serve/model_registry.hh"

#include "common/logging.hh"

namespace nlfm::serve
{

std::size_t
ModelRegistry::add(ModelSpec spec)
{
    nlfm_assert(spec.network != nullptr, "ModelSpec without a network");
    nlfm_assert(spec.weight > 0.0,
                "ModelSpec weight must be positive (got ", spec.weight,
                ")");
    nlfm_assert(!spec.memo.recordTrace,
                "fleet models cannot record traces: a served slot's trace "
                "is dropped when the slot is recycled");
    if (spec.memoized &&
        spec.memo.predictor == memo::PredictorKind::Bnn)
        nlfm_assert(spec.bnn != nullptr,
                    "memoized model with the BNN predictor needs a "
                    "binarized mirror");
    if (spec.name.empty())
        spec.name = "model" + std::to_string(models_.size());
    nlfm_assert(find(spec.name) < 0, "duplicate model name \"",
                spec.name, "\"");
    models_.push_back(std::move(spec));
    return models_.size() - 1;
}

const ModelSpec &
ModelRegistry::spec(std::size_t model) const
{
    nlfm_assert(model < models_.size(), "model id out of range");
    return models_[model];
}

int
ModelRegistry::find(const std::string &name) const
{
    for (std::size_t m = 0; m < models_.size(); ++m)
        if (models_[m].name == name)
            return static_cast<int>(m);
    return -1;
}

} // namespace nlfm::serve
