#include "nn/serialize.hh"

#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "nn/cell_descriptor.hh"

namespace nlfm::nn
{

namespace
{

constexpr char magic[8] = {'N', 'L', 'F', 'M', 'R', 'N', 'N', '1'};

struct FileHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t cellType;
    std::uint64_t inputSize;
    std::uint64_t hiddenSize;
    std::uint64_t layers;
    std::uint32_t bidirectional;
    std::uint32_t peepholes;
};

class File
{
  public:
    File(const std::string &path, const char *mode)
        : handle_(std::fopen(path.c_str(), mode)), path_(path)
    {
        if (!handle_)
            nlfm_fatal("cannot open ", path, " (mode ", mode, ")");
    }

    ~File()
    {
        if (handle_)
            std::fclose(handle_);
    }

    File(const File &) = delete;
    File &operator=(const File &) = delete;

    // Empty blocks (a gate without an auxiliary vector) pass a null
    // data(); fwrite/fread must not see it, even for zero bytes.
    void
    write(const void *data, std::size_t bytes)
    {
        if (bytes != 0 && std::fwrite(data, 1, bytes, handle_) != bytes)
            nlfm_fatal("short write to ", path_);
    }

    void
    read(void *data, std::size_t bytes)
    {
        if (bytes != 0 && std::fread(data, 1, bytes, handle_) != bytes)
            nlfm_fatal("short read from ", path_,
                       " (truncated or corrupt file)");
    }

    /** Bytes between the read position and the end of the file. */
    std::uint64_t
    bytesLeft()
    {
        const long here = std::ftell(handle_);
        if (here < 0 || std::fseek(handle_, 0, SEEK_END) != 0)
            nlfm_fatal("cannot seek in ", path_);
        const long end = std::ftell(handle_);
        if (end < here || std::fseek(handle_, here, SEEK_SET) != 0)
            nlfm_fatal("cannot seek in ", path_);
        return static_cast<std::uint64_t>(end - here);
    }

  private:
    std::FILE *handle_;
    std::string path_;
};

/**
 * Largest inputSize / hiddenSize and layer count a file may declare:
 * far above every network the repo builds (the zoo's widest is 1024),
 * and small enough to bound what a header can make the loader attempt.
 */
constexpr std::uint64_t kMaxDimension = std::uint64_t{1} << 20;
constexpr std::uint64_t kMaxLayers = 1024;

void
checkDimension(const std::string &path, const char *field,
               std::uint64_t value, std::uint64_t max)
{
    if (value == 0 || value > max)
        nlfm_fatal(path, " is corrupt: header field ", field, " = ", value,
                   " is out of range [1, ", max, "]");
}

/**
 * Bytes of weight blocks saveNetwork writes for @p config: per gate
 * instance, a count word plus the floats of wx, wh, bias and the
 * auxiliary vector. False when the total overflows 64 bits.
 */
bool
payloadBytes(const RnnConfig &config, std::uint64_t &total)
{
    const CellDescriptor &desc = cellDescriptor(config.cellType);
    const std::uint64_t hidden = config.hiddenSize;
    bool overflow = false;
    total = 0;
    const auto add_block = [&](std::uint64_t floats, std::uint64_t copies) {
        std::uint64_t bytes = 0;
        overflow |= __builtin_mul_overflow(floats, sizeof(float), &bytes);
        overflow |= __builtin_add_overflow(bytes, sizeof(std::uint64_t),
                                           &bytes);
        overflow |= __builtin_mul_overflow(bytes, copies, &bytes);
        overflow |= __builtin_add_overflow(total, bytes, &total);
    };
    for (std::size_t l = 0; l < config.layers; ++l) {
        const std::uint64_t x_size = config.layerInputSize(l);
        const std::uint64_t dirs = config.directions();
        for (const GateSpec &gate : desc.gates) {
            std::uint64_t wx = 0;
            std::uint64_t wh = 0;
            overflow |= __builtin_mul_overflow(hidden, x_size, &wx);
            overflow |= __builtin_mul_overflow(hidden, hidden, &wh);
            const bool aux =
                gate.aux == GateAux::Leak ||
                (gate.aux == GateAux::Peephole && config.peepholes);
            add_block(wx, dirs);
            add_block(wh, dirs);
            add_block(hidden, dirs);
            add_block(aux ? hidden : 0, dirs);
        }
    }
    return !overflow;
}

void
writeFloats(File &file, std::span<const float> values)
{
    const auto count = static_cast<std::uint64_t>(values.size());
    file.write(&count, sizeof(count));
    file.write(values.data(), values.size() * sizeof(float));
}

void
readFloats(File &file, std::span<float> values)
{
    std::uint64_t count = 0;
    file.read(&count, sizeof(count));
    if (count != values.size())
        nlfm_fatal("weight block size mismatch: file has ", count,
                   ", network expects ", values.size());
    file.read(values.data(), values.size() * sizeof(float));
}

} // namespace

void
saveNetwork(const RnnNetwork &network, const std::string &path)
{
    const RnnConfig &config = network.config();
    File file(path, "wb");

    FileHeader header{};
    std::memcpy(header.magic, magic, sizeof(magic));
    // Version 1 predates the pluggable cell registry and only ever held
    // LSTM/GRU networks; keep emitting it for those two so their files
    // stay byte-identical across the refactor. Registry-era families
    // are stamped version 2 (same layout, wider cellType domain).
    header.version =
        config.cellType <= CellType::Gru ? 1 : 2;
    header.cellType = static_cast<std::uint32_t>(config.cellType);
    header.inputSize = config.inputSize;
    header.hiddenSize = config.hiddenSize;
    header.layers = config.layers;
    header.bidirectional = config.bidirectional ? 1 : 0;
    header.peepholes = config.peepholes ? 1 : 0;
    file.write(&header, sizeof(header));

    for (const auto &inst : network.gateInstances()) {
        const GateParams &params = network.gateParams(inst.instanceId);
        writeFloats(file, params.wx.data());
        writeFloats(file, params.wh.data());
        writeFloats(file, params.bias);
        writeFloats(file, params.peephole);
    }
}

std::unique_ptr<RnnNetwork>
loadNetwork(const std::string &path)
{
    File file(path, "rb");
    FileHeader header{};
    file.read(&header, sizeof(header));
    if (std::memcmp(header.magic, magic, sizeof(magic)) != 0)
        nlfm_fatal(path, " is not an NLFM network file");
    if (header.version != 1 && header.version != 2)
        nlfm_fatal("unsupported network file version ", header.version);
    if (!isKnownCellType(header.cellType))
        nlfm_fatal(path, " holds an unknown cell family id ",
                   header.cellType, "; this build knows ",
                   knownCellNames());
    if (header.version == 1 &&
        header.cellType > static_cast<std::uint32_t>(CellType::Gru))
        nlfm_fatal(path, " is corrupt: version 1 files predate cell "
                         "family ",
                   cellTypeName(static_cast<CellType>(header.cellType)));
    // The header is untrusted: bound it, and hold it to the bytes the
    // file actually has, before anything is allocated from it.
    checkDimension(path, "inputSize", header.inputSize, kMaxDimension);
    checkDimension(path, "hiddenSize", header.hiddenSize, kMaxDimension);
    checkDimension(path, "layers", header.layers, kMaxLayers);

    RnnConfig config;
    config.cellType = static_cast<CellType>(header.cellType);
    config.inputSize = header.inputSize;
    config.hiddenSize = header.hiddenSize;
    config.layers = header.layers;
    config.bidirectional = header.bidirectional != 0;
    config.peepholes = header.peepholes != 0;

    std::uint64_t payload = 0;
    if (!payloadBytes(config, payload))
        nlfm_fatal(path, " is corrupt: its header declares a network "
                         "too large to address");
    const std::uint64_t left = file.bytesLeft();
    if (payload != left)
        nlfm_fatal(path, " is corrupt: its header declares ", payload,
                   " bytes of weights, but ", left,
                   " bytes follow it (file too short or too long)");

    auto network = std::make_unique<RnnNetwork>(config);
    for (const auto &inst : network->gateInstances()) {
        GateParams &params = network->gateParams(inst.instanceId);
        readFloats(file, params.wx.data());
        readFloats(file, params.wh.data());
        readFloats(file, params.bias);
        readFloats(file, params.peephole);
    }
    return network;
}

} // namespace nlfm::nn
