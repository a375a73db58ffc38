/**
 * @file
 * The pipeline registry: the single source of truth for every
 * prefetcher pipeline the evaluation can run. Each entry carries the
 * canonical name, the display name the figures print, the parameters
 * the pipeline accepts (with types and documentation, so the CLI can
 * list them and the spec parser can reject typos), and the run
 * functor that turns a validated parameter bag into a simulation.
 *
 * Adding a pipeline is one registration here — the spec parser, the
 * experiment driver, the sinks' column titles, and `prophet
 * list-pipelines` all derive from this table. Nothing is spelled
 * twice.
 */

#ifndef PROPHET_SIM_PIPELINES_HH
#define PROPHET_SIM_PIPELINES_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/error.hh"
#include "sim/system.hh"

namespace prophet::sim
{

class Runner;

/**
 * An unknown pipeline, unknown parameter, or ill-typed value. Part
 * of the prophet::Error taxonomy (code PipelineConfig), so the
 * driver and CLI classify it without string matching.
 */
class PipelineError : public Error
{
  public:
    explicit PipelineError(const std::string &message,
                           ErrorContext ctx = {})
        : Error(ErrorCode::PipelineConfig, message, std::move(ctx))
    {}
};

/** A typed pipeline-parameter value. */
struct ParamValue
{
    enum class Type { Number, Bool, String, StringList };

    Type type = Type::Number;
    double num = 0.0;
    bool flag = false;
    std::string str;
    std::vector<std::string> list;

    static ParamValue makeNumber(double v);
    static ParamValue makeBool(bool v);
    static ParamValue makeString(std::string v);
    static ParamValue makeList(std::vector<std::string> v);

    /** Compact human form ("4", "0.05", "true", "a,b") for labels. */
    std::string display() const;
};

/** The name of a ParamValue::Type ("number", ...), for messages. */
std::string paramTypeName(ParamValue::Type type);

/**
 * One pipeline to run: the registry name, an optional display label
 * (sweep columns, figure stage names), and the parameter bag. The
 * bag holds only values explicitly set — the run functor supplies
 * the registry defaults for everything absent.
 */
struct PipelineInstance
{
    std::string name;
    std::string label; ///< empty = derive from the registry
    std::map<std::string, ParamValue> params;

    PipelineInstance() = default;
    /*implicit*/ PipelineInstance(std::string n) : name(std::move(n))
    {}
    /*implicit*/ PipelineInstance(const char *n) : name(n) {}

    /** The key results are reported under (label, else name). */
    const std::string &resultName() const
    {
        return label.empty() ? name : label;
    }

    bool has(const std::string &key) const;

    /**
     * Typed accessors: the default when the key is absent, the set
     * value otherwise. A present-but-ill-typed value throws
     * PipelineError (validatePipeline rejects it up front, so the
     * run functors never see one from a parsed spec).
     */
    double number(const std::string &key, double def) const;
    bool boolean(const std::string &key, bool def) const;
    std::string string(const std::string &key,
                       const std::string &def) const;
    /** Null when absent. */
    const std::vector<std::string> *
    stringList(const std::string &key) const;
};

/** One parameter a pipeline accepts. */
struct ParamInfo
{
    std::string key;
    ParamValue::Type type;
    std::string doc; ///< one line for `prophet list-pipelines`

    /**
     * Number constraints, enforced by validatePipeline: the value
     * must lie in [minValue, maxValue], and integral parameters
     * reject fractions — a "degree": 2.5 must fail loudly, never
     * truncate into a silently different experiment (and bounds
     * keep the double -> unsigned casts in the run functors
     * defined).
     */
    bool integral = false;
    double minValue = 0.0;
    double maxValue = 9007199254740992.0; /* 2^53 */
};

/** One registry entry. */
struct PipelineDef
{
    std::string name;        ///< canonical spec name
    std::string displayName; ///< figure column title
    std::vector<ParamInfo> params;
    /** Extra semantic checks beyond key/type (may be null). */
    std::function<void(const PipelineInstance &)> validate;
    /** Configure and run on one workload. Thread-safe via Runner. */
    std::function<RunStats(Runner &, const PipelineInstance &,
                           const std::string &)>
        run;

    const ParamInfo *findParam(const std::string &key) const;
};

/** Every registered pipeline, in display order. */
const std::vector<PipelineDef> &pipelineRegistry();

/** Registry lookup; nullptr when unknown. */
const PipelineDef *findPipeline(const std::string &name);

/** The registered canonical names, in display order. */
const std::vector<std::string> &pipelineNames();

/** Space-separated names for error messages. */
std::string registeredPipelineList();

/** Column header for a name ("rpg2" -> "RPG2"; unknown -> name). */
std::string pipelineDisplayName(const std::string &name);

/** Column title of an instance (label, else the display name). */
std::string pipelineColumnTitle(const PipelineInstance &p);

/**
 * Full validation of an instance: the name must be registered, every
 * parameter key accepted with a matching type, and the pipeline's
 * own semantic checks must pass. Throws PipelineError naming the
 * offender and what would have been accepted.
 */
void validatePipeline(const PipelineInstance &p);

} // namespace prophet::sim

#endif // PROPHET_SIM_PIPELINES_HH
