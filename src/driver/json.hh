/**
 * @file
 * Minimal self-contained JSON: a value model, a recursive-descent
 * parser, and a deterministic writer. Experiment specs, the JSON
 * stats sink, the --metrics-out report and the serve daemon's
 * request and response frames all go through this, so the repo
 * stays free of external dependencies.
 *
 * Deviations from strict JSON, both for human-edited spec files:
 *  - `//` line comments are skipped as whitespace;
 *  - a trailing comma before `]` or `}` is accepted.
 * The writer emits strict JSON only.
 */

#ifndef PROPHET_DRIVER_JSON_HH
#define PROPHET_DRIVER_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace prophet::driver::json
{

/**
 * One JSON value. Objects preserve insertion order (a std::map would
 * re-sort keys and make spec hashing depend on spelling, not
 * content order), and duplicate keys are a parse error.
 */
class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<Value>;
    using Member = std::pair<std::string, Value>;
    using Object = std::vector<Member>;

    Value() = default;
    Value(bool b) : kind_(Kind::Bool), boolVal(b) {}
    Value(double d) : kind_(Kind::Number), numVal(d) {}
    Value(int i) : kind_(Kind::Number), numVal(i) {}
    Value(std::uint64_t u)
        : kind_(Kind::Number), numVal(static_cast<double>(u))
    {}
    Value(std::string s) : kind_(Kind::String), strVal(std::move(s)) {}
    Value(const char *s) : kind_(Kind::String), strVal(s) {}

    static Value makeArray() { Value v; v.kind_ = Kind::Array; return v; }
    static Value makeObject() { Value v; v.kind_ = Kind::Object; return v; }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return boolVal; }
    double asNumber() const { return numVal; }
    const std::string &asString() const { return strVal; }
    const Array &asArray() const { return arrVal; }
    const Object &asObject() const { return objVal; }

    /** Append to an array value. */
    void
    push(Value v)
    {
        arrVal.push_back(std::move(v));
    }

    /** Append a member to an object value. */
    void
    set(std::string key, Value v)
    {
        objVal.emplace_back(std::move(key), std::move(v));
    }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

  private:
    Kind kind_ = Kind::Null;
    bool boolVal = false;
    double numVal = 0.0;
    std::string strVal;
    Array arrVal;
    Object objVal;
};

/**
 * Parse @p text into @p out. On failure returns false and, when
 * @p err is non-null, stores a "line L, column C: reason" message.
 * Trailing non-whitespace after the top-level value is an error.
 */
bool parse(const std::string &text, Value &out,
           std::string *err = nullptr);

/**
 * Serialize to strict JSON. @p indent > 0 pretty-prints with that
 * many spaces per level; 0 emits the compact one-line form the spec
 * hash is computed over. Numbers that are integral and exactly
 * representable print without a decimal point; everything else uses
 * %.17g so doubles round-trip bit-for-bit.
 */
std::string dump(const Value &v, int indent = 0);

} // namespace prophet::driver::json

#endif // PROPHET_DRIVER_JSON_HH
