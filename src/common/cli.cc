#include "common/cli.hh"

#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace nlfm
{

CliParser::CliParser(std::string description)
    : description_(std::move(description))
{
}

void
CliParser::addString(const std::string &name,
                     const std::string &default_value,
                     const std::string &help)
{
    options_[name] = Option{Kind::String, default_value, default_value,
                            help, {}};
    order_.push_back(name);
}

void
CliParser::addInt(const std::string &name, std::int64_t default_value,
                  const std::string &help)
{
    const std::string text = std::to_string(default_value);
    options_[name] = Option{Kind::Int, text, text, help, {}};
    order_.push_back(name);
}

void
CliParser::addDouble(const std::string &name, double default_value,
                     const std::string &help)
{
    const std::string text = std::to_string(default_value);
    options_[name] = Option{Kind::Double, text, text, help, {}};
    order_.push_back(name);
}

void
CliParser::addBool(const std::string &name, bool default_value,
                   const std::string &help)
{
    const std::string text = default_value ? "true" : "false";
    options_[name] = Option{Kind::Bool, text, text, help, {}};
    order_.push_back(name);
}

bool
CliParser::parse(int argc, const char *const *argv)
{
    program_ = argc > 0 ? argv[0] : "prog";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage();
            return false;
        }
        if (arg.rfind("--", 0) != 0)
            nlfm_fatal("unexpected positional argument: ", arg);
        arg = arg.substr(2);

        std::string value;
        bool has_value = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_value = true;
        }

        auto it = options_.find(arg);
        if (it == options_.end())
            nlfm_fatal("unknown option --", arg, " (try --help)");

        if (!has_value) {
            if (it->second.kind == Kind::Bool) {
                value = "true";
            } else {
                if (i + 1 >= argc)
                    nlfm_fatal("option --", arg, " expects a value");
                value = argv[++i];
            }
        }
        it->second.value = value;
        it->second.values.push_back(value);
    }
    return true;
}

const CliParser::Option &
CliParser::find(const std::string &name, Kind kind) const
{
    auto it = options_.find(name);
    nlfm_assert(it != options_.end(), "option not registered: ", name);
    nlfm_assert(it->second.kind == kind, "option type mismatch: ", name);
    return it->second;
}

std::string
CliParser::getString(const std::string &name) const
{
    return find(name, Kind::String).value;
}

std::int64_t
CliParser::getInt(const std::string &name) const
{
    const auto &opt = find(name, Kind::Int);
    return std::strtoll(opt.value.c_str(), nullptr, 10);
}

double
CliParser::getDouble(const std::string &name) const
{
    const auto &opt = find(name, Kind::Double);
    return std::strtod(opt.value.c_str(), nullptr);
}

std::vector<std::string>
CliParser::getStringList(const std::string &name) const
{
    return find(name, Kind::String).values;
}

bool
CliParser::getBool(const std::string &name) const
{
    const auto &opt = find(name, Kind::Bool);
    return opt.value == "true" || opt.value == "1" || opt.value == "yes";
}

void
CliParser::printUsage() const
{
    std::printf("%s\n\nusage: %s [options]\n\noptions:\n",
                description_.c_str(), program_.c_str());
    for (const auto &name : order_) {
        const auto &opt = options_.at(name);
        std::printf("  --%-22s %s (default: %s)\n", name.c_str(),
                    opt.help.c_str(), opt.defaultValue.c_str());
    }
    std::printf("  --%-22s %s\n", "help", "show this message");
}

} // namespace nlfm
