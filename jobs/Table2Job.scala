package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.tables.Table2

/** spark-submit entrypoint for Table 2 (profiling the SIGMOD datasets).
  *
  * Usage: spark-submit --class repro.jobs.Table2Job <jar>
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .appName("frost-table2")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(Table2.format(Table2.run(spark)))
    finally spark.stop()
  }
}
