#include "net/vca.h"

#include <string>

#include "common/log.h"

namespace hornet::net {

VcaMode
vca_mode_from_string(const std::string &s)
{
    if (s == "dynamic")
        return VcaMode::Dynamic;
    if (s == "static")
        return VcaMode::StaticSet;
    if (s == "edvca")
        return VcaMode::Edvca;
    if (s == "faa")
        return VcaMode::Faa;
    fatal("unknown VCA mode: " + s);
}

const char *
to_string(VcaMode mode)
{
    switch (mode) {
      case VcaMode::Dynamic:
        return "dynamic";
      case VcaMode::StaticSet:
        return "static";
      case VcaMode::Edvca:
        return "edvca";
      case VcaMode::Faa:
        return "faa";
    }
    return "?";
}

void
VcaTable::add(const VcaKey &key, const VcaResult &result)
{
    if (frozen())
        panic(strcat("VCA table: add() after freeze() (", describe(), ")"));
    if (result.weight <= 0.0)
        fatal("VCA table: weights must be positive");
    builder_.add(key, result);
}

const VcaTable::Options *
VcaTable::lookup(const VcaKey &key) const
{
    return read("lookup").lookup(key);
}

const VcaTable::Flat &
VcaTable::read(const char *what) const
{
    if (read_ == nullptr) [[unlikely]]
        panic(strcat("VCA table: ", what, " before freeze() (", describe(),
                     ")"));
    return *read_;
}

void
VcaTable::freeze(common::Arena *arena)
{
    if (frozen())
        return;
    builder_.build(flat_, arena);
    read_ = &flat_;
}

void
VcaTable::adopt(const VcaTable &donor)
{
    if (frozen() || builder_.size() != 0)
        panic(strcat("VCA table: adopt() on a non-empty table (", describe(),
                     ")"));
    read_ = &donor.read("adopt() donor");
}

std::string
VcaTable::describe() const
{
    if (!frozen())
        return strcat("unfrozen: ", builder_.size(), " records");
    return strcat(read_ == &flat_ ? "frozen" : "adopted",
                  " flat table: ", read_->size(), " entries, capacity ",
                  read_->capacity(), ", max probe ", read_->max_probe());
}

} // namespace hornet::net
